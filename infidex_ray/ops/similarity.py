"""Similarity search over an embedding column (``list<float>``).

* ``knn_cosine``  — brute-force cosine top-k: one blocked numpy matmul per
  batch against a ``ray.put`` broadcast query matrix; per-batch partial
  top-k → tiny driver merge. Scales linearly with corpus size and streams.
* ``lsh_knn``     — random-hyperplane LSH bucketing: only buckets that the
  query hashes into are scanned (the scale path; recall < 1 by design).
* ``ivf_build``/``ivf_knn`` — IVF with deterministic k-means-lite
  centroids; probes the ``nprobe`` nearest lists.
"""

from __future__ import annotations

import heapq

from .dedup import round_half_up4

import numpy as np
import pyarrow as pa

from . import dataflow


def _to_matrix(batch: pa.Table, vec_col: str) -> np.ndarray:
    """(n, dim) float64 matrix from a list<float> / fixed_size_list column.

    Zero-copy path: flatten the list child values (one buffer) and reshape —
    no per-row Python objects. Ragged rows or nulls fall back to the row-wise
    path (embeddings are fixed-width in practice, so the fast path always
    hits)."""
    col = batch[vec_col]
    arr = col.combine_chunks() if hasattr(col, "combine_chunks") else col
    try:
        if isinstance(arr, pa.FixedSizeListArray) and arr.null_count == 0:
            width = arr.type.list_size
            flat = arr.flatten().to_numpy(zero_copy_only=False)
            return flat.reshape(len(arr), width).astype(np.float64, copy=False)
        if (
            isinstance(arr, (pa.ListArray, pa.LargeListArray))
            and arr.null_count == 0
            and len(arr)
        ):
            offsets = arr.offsets.to_numpy(zero_copy_only=False)
            widths = np.diff(offsets)
            if (widths == widths[0]).all() and widths[0] > 0:
                flat = arr.flatten().to_numpy(zero_copy_only=False)
                return flat.reshape(len(arr), int(widths[0])).astype(
                    np.float64, copy=False
                )
    except (pa.ArrowInvalid, ValueError):
        pass
    return np.vstack([np.asarray(v, dtype=np.float64) for v in arr.to_pylist()])


def _normalize_rows(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1)
    n[n == 0] = 1.0
    return m / n[:, None]


def knn_cosine(
    ds,
    query_vecs: np.ndarray,
    k: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pa.Table:
    """Exact cosine top-k for each query row. Returns
    (query_idx, rank, vec_id, cosine) with deterministic tie-break
    (cosine desc, vec_id asc)."""
    import ray

    q = np.atleast_2d(np.asarray(query_vecs, dtype=np.float64))
    qn = _normalize_rows(q)
    q_ref = ray.put(qn)

    def partial_topk(batch: pa.Table) -> pa.Table:
        qm = ray.get(q_ref)
        ids = np.asarray(batch[id_col].to_pylist(), dtype=np.int64)
        m = _normalize_rows(_to_matrix(batch, vec_col))
        sims = qm @ m.T  # (nq, nb)
        out_q, out_id, out_s = [], [], []
        kk = min(k, sims.shape[1])
        for qi in range(sims.shape[0]):
            row = sims[qi]
            # deterministic partial top-k: sort by (-sim, id)
            idx = np.lexsort((ids, -row))[:kk]
            out_q.extend([qi] * len(idx))
            out_id.extend(ids[idx])
            out_s.extend(row[idx])
        return pa.table(
            {
                "query_idx": pa.array(out_q, pa.int32()),
                "vec_id": pa.array(out_id, pa.int64()),
                "cosine": pa.array(out_s, pa.float64()),
            }
        )

    partials = ds.select_columns([id_col, vec_col]).map_batches(
        partial_topk, batch_format="pyarrow"
    )
    # driver merge of tiny partials
    per_query: dict[int, list] = {}
    for b in partials.iter_batches(batch_size=None, batch_format="pyarrow"):
        for qi, vid, s in zip(
            b["query_idx"].to_pylist(), b["vec_id"].to_pylist(), b["cosine"].to_pylist()
        ):
            per_query.setdefault(qi, []).append((-s, vid))
    rows_q, rows_r, rows_id, rows_s = [], [], [], []
    for qi in sorted(per_query):
        top = heapq.nsmallest(k, per_query[qi])
        for r, (negs, vid) in enumerate(top):
            rows_q.append(qi)
            rows_r.append(r + 1)
            rows_id.append(vid)
            rows_s.append(round_half_up4(-negs))
    return pa.table(
        {
            "query_idx": pa.array(rows_q, pa.int32()),
            "rank": pa.array(rows_r, pa.int32()),
            "vec_id": pa.array(rows_id, pa.int64()),
            "cosine": pa.array(rows_s, pa.float64()),
        }
    )


# --- LSH-bucketed variant (scale path) ---------------------------------------


def _hyperplanes(dim: int, n_bits: int = 12, seed: int = 42) -> np.ndarray:
    rng = np.random.RandomState(seed)
    return rng.normal(size=(n_bits, dim))


def lsh_knn(
    ds,
    query_vecs: np.ndarray,
    k: int = 10,
    n_bits: int = 12,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    seed: int = 42,
) -> pa.Table:
    """Approximate cosine top-k: random-hyperplane signatures; only vectors
    whose bucket equals (or is within Hamming 1 of) the query bucket are
    scored. Same output schema as knn_cosine."""
    import ray

    q = np.atleast_2d(np.asarray(query_vecs, dtype=np.float64))
    qn = _normalize_rows(q)

    def buckets_of(m: np.ndarray, planes: np.ndarray) -> np.ndarray:
        bits = (m @ planes.T) > 0
        weights = (1 << np.arange(planes.shape[0])).astype(np.int64)
        return bits @ weights

    planes = None  # resolved lazily from the first batch's dim
    # query buckets need dim; take from query
    planes = _hyperplanes(q.shape[1], n_bits, seed)
    qb = buckets_of(qn, planes)
    accept: set[int] = set()
    for bkt in qb:
        accept.add(int(bkt))
        for bit in range(n_bits):
            accept.add(int(bkt) ^ (1 << bit))
    q_ref = ray.put((qn, planes, accept))

    def partial(batch: pa.Table) -> pa.Table:
        qm, pl, acc = ray.get(q_ref)
        ids = np.asarray(batch[id_col].to_pylist(), dtype=np.int64)
        m = _normalize_rows(_to_matrix(batch, vec_col))
        bk = buckets_of(m, pl)
        mask = np.fromiter((int(x) in acc for x in bk), dtype=bool, count=len(bk))
        if not mask.any():
            return pa.table(
                {
                    "query_idx": pa.array([], pa.int32()),
                    "vec_id": pa.array([], pa.int64()),
                    "cosine": pa.array([], pa.float64()),
                }
            )
        ids, m = ids[mask], m[mask]
        sims = qm @ m.T
        out_q, out_id, out_s = [], [], []
        kk = min(k, sims.shape[1])
        for qi in range(sims.shape[0]):
            idx = np.lexsort((ids, -sims[qi]))[:kk]
            out_q.extend([qi] * len(idx))
            out_id.extend(ids[idx])
            out_s.extend(sims[qi][idx])
        return pa.table(
            {
                "query_idx": pa.array(out_q, pa.int32()),
                "vec_id": pa.array(out_id, pa.int64()),
                "cosine": pa.array(out_s, pa.float64()),
            }
        )

    partials = ds.select_columns([id_col, vec_col]).map_batches(
        partial, batch_format="pyarrow"
    )
    return _merge_partials(partials, k)


def _merge_partials(partials, k: int) -> pa.Table:
    per_query: dict[int, list] = {}
    for b in partials.iter_batches(batch_size=None, batch_format="pyarrow"):
        for qi, vid, s in zip(
            b["query_idx"].to_pylist(), b["vec_id"].to_pylist(), b["cosine"].to_pylist()
        ):
            per_query.setdefault(qi, []).append((-s, vid))
    rows = {"query_idx": [], "rank": [], "vec_id": [], "cosine": []}
    for qi in sorted(per_query):
        for r, (negs, vid) in enumerate(heapq.nsmallest(k, per_query[qi])):
            rows["query_idx"].append(qi)
            rows["rank"].append(r + 1)
            rows["vec_id"].append(vid)
            rows["cosine"].append(round_half_up4(-negs))
    return pa.table(
        {
            "query_idx": pa.array(rows["query_idx"], pa.int32()),
            "rank": pa.array(rows["rank"], pa.int32()),
            "vec_id": pa.array(rows["vec_id"], pa.int64()),
            "cosine": pa.array(rows["cosine"], pa.float64()),
        }
    )


# --- IVF (inverted-file) variant ---------------------------------------------


def ivf_build(
    ds,
    n_centroids: int = 64,
    iters: int = 5,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    seed: int = 42,
    sample_size: int = 4096,
):
    """Deterministic k-means-lite IVF: seeds centroids from a corpus sample,
    refines a few Lloyd iterations, then assigns every vector to its nearest
    centroid in a ``map_batches`` pass. Returns (centroids, assigned_ds)
    where assigned_ds carries a ``list_id`` column — at scale, write it with
    ``write_parquet(partition_cols=["list_id"])`` so queries read only the
    probed lists."""
    import ray

    parts = [
        _to_matrix(b, vec_col)
        for b in ds.select_columns([vec_col])
        .limit(sample_size)
        .iter_batches(batch_size=None, batch_format="pyarrow")
    ]
    sample = _normalize_rows(np.vstack(parts))
    rng = np.random.RandomState(seed)
    centroids = sample[rng.choice(len(sample), size=min(n_centroids, len(sample)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(sample @ centroids.T, axis=1)
        for c in range(len(centroids)):
            members = sample[assign == c]
            if len(members):
                v = members.mean(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    centroids[c] = v / n
    c_ref = ray.put(centroids)

    def assign_batch(batch: pa.Table) -> pa.Table:
        cents = ray.get(c_ref)
        m = _normalize_rows(_to_matrix(batch, vec_col))
        lists = np.argmax(m @ cents.T, axis=1).astype(np.int32)
        return batch.append_column("list_id", pa.array(lists, pa.int32()))

    assigned = ds.map_batches(assign_batch, batch_format="pyarrow")
    return centroids, assigned


def ivf_write(assigned_ds, path: str) -> None:
    """Persist an IVF-assigned dataset hive-partitioned by ``list_id`` —
    the pruned-read layout: a query then reads ONLY its probed lists'
    directories (``ivf_knn_pruned``) instead of scanning the corpus and
    filtering in-task. At 100 TB this is the difference between touching
    nprobe/n_centroids of the data and touching all of it."""
    assigned_ds.write_parquet(path, partition_cols=["list_id"])


def probe_lists_for(centroids: np.ndarray, query_vecs: np.ndarray, nprobe: int) -> set[int]:
    q = np.atleast_2d(np.asarray(query_vecs, dtype=np.float64))
    qn = _normalize_rows(q)
    sims_c = qn @ centroids.T
    probes: set[int] = set()
    for qi in range(len(qn)):
        top = np.argsort(-sims_c[qi])[:nprobe]
        probes.update(int(x) for x in top)
    return probes


def ivf_knn_pruned(
    path: str,
    centroids: np.ndarray,
    query_vecs: np.ndarray,
    k: int = 10,
    nprobe: int = 4,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pa.Table:
    """Approximate top-k over an ``ivf_write`` layout, reading ONLY the
    probed ``list_id=<l>`` partitions (partition pruning at the read — no
    full scan, no in-task filter). Same output schema as ``knn_cosine``."""
    import os

    import ray
    import ray.data

    import glob

    probes = probe_lists_for(centroids, query_vecs, nprobe)
    files = [
        f
        for l in sorted(probes)
        for f in sorted(glob.glob(os.path.join(path, f"list_id={l}", "*.parquet")))
    ]
    if not files:
        return _merge_partials_empty()
    ds = ray.data.read_parquet(files, columns=[id_col, vec_col])

    q = np.atleast_2d(np.asarray(query_vecs, dtype=np.float64))
    qn = _normalize_rows(q)
    q_ref = ray.put(qn)

    def partial(batch: pa.Table) -> pa.Table:
        qm = ray.get(q_ref)
        ids = np.asarray(batch[id_col].to_pylist(), dtype=np.int64)
        m = _normalize_rows(_to_matrix(batch, vec_col))
        sims = qm @ m.T
        out_q, out_id, out_s = [], [], []
        kk = min(k, sims.shape[1])
        for qi in range(sims.shape[0]):
            idx = np.lexsort((ids, -sims[qi]))[:kk]
            out_q.extend([qi] * len(idx))
            out_id.extend(ids[idx])
            out_s.extend(sims[qi][idx])
        return pa.table(
            {
                "query_idx": pa.array(out_q, pa.int32()),
                "vec_id": pa.array(out_id, pa.int64()),
                "cosine": pa.array(out_s, pa.float64()),
            }
        )

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return _merge_partials(partials, k)


def _merge_partials_empty() -> pa.Table:
    return pa.table(
        {
            "query_idx": pa.array([], pa.int32()),
            "rank": pa.array([], pa.int32()),
            "vec_id": pa.array([], pa.int64()),
            "cosine": pa.array([], pa.float64()),
        }
    )


def ivf_knn(
    assigned_ds,
    centroids: np.ndarray,
    query_vecs: np.ndarray,
    k: int = 10,
    nprobe: int = 4,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pa.Table:
    """Approximate top-k over an IVF-assigned dataset: scores only vectors in
    the ``nprobe`` lists nearest to each query. Same output schema as
    ``knn_cosine``."""
    import ray

    q = np.atleast_2d(np.asarray(query_vecs, dtype=np.float64))
    qn = _normalize_rows(q)
    probe_lists: set[int] = set()
    sims_c = qn @ centroids.T
    for qi in range(len(qn)):
        top = np.argsort(-sims_c[qi])[:nprobe]
        probe_lists.update(int(x) for x in top)
    ref = ray.put((qn, probe_lists))

    def partial(batch: pa.Table) -> pa.Table:
        qm, probes = ray.get(ref)
        lists = np.asarray(batch["list_id"].to_pylist(), dtype=np.int32)
        mask = np.isin(lists, np.fromiter(probes, dtype=np.int32))
        empty = pa.table(
            {
                "query_idx": pa.array([], pa.int32()),
                "vec_id": pa.array([], pa.int64()),
                "cosine": pa.array([], pa.float64()),
            }
        )
        if not mask.any():
            return empty
        sub = batch.filter(pa.array(mask))
        ids = np.asarray(sub[id_col].to_pylist(), dtype=np.int64)
        m = _normalize_rows(_to_matrix(sub, vec_col))
        sims = qm @ m.T
        out_q, out_id, out_s = [], [], []
        kk = min(k, sims.shape[1])
        for qi in range(sims.shape[0]):
            idx = np.lexsort((ids, -sims[qi]))[:kk]
            out_q.extend([qi] * len(idx))
            out_id.extend(ids[idx])
            out_s.extend(sims[qi][idx])
        return pa.table(
            {
                "query_idx": pa.array(out_q, pa.int32()),
                "vec_id": pa.array(out_id, pa.int64()),
                "cosine": pa.array(out_s, pa.float64()),
            }
        )

    partials = assigned_ds.map_batches(partial, batch_format="pyarrow")
    return _merge_partials(partials, k)


# --- exact k-nearest-neighbor GRAPH (all-pairs top-k) -------------------------


def knn_graph(
    ds,
    k: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
):
    """Exact cosine k-nearest-neighbor graph: the top-k neighbors of EVERY
    vector (self excluded) — the building block of SemDeDup-style semantic
    dedup and embedding-curation pipelines (cluster the graph, keep one doc
    per tight neighborhood).

    Block-pair design (same shape as ``dedup.embedding_dup_pairs``): the
    corpus' Arrow blocks stay in the object store; ONE Ray task per query
    block streams every block through a matmul and keeps a running
    (k × block-rows) top-k buffer, so no full similarity matrix and no
    full-corpus matrix ever exists anywhere — task memory is
    O(block² + block·k) and the result is a Dataset assembled from the
    per-task output refs, never driver-collected. Compute is the
    unavoidable O(N²/P) of an exact graph; at web scale cluster first
    (``ops.clustering.kmeans``) and build per-cluster graphs, or accept LSH
    recall with bucketed candidates (``dedup.embedding_dup_pairs_lsh``).

    Returns a Dataset of (vec_id, rank, nbr_id, cosine), rank 1..k with the
    deterministic tie-break (cosine desc, nbr_id asc); cosine is rounded
    half-away-from-zero to 4 decimals (DuckDB ROUND parity)."""
    import ray

    from .dedup import round_half_up4_arr

    refs = ds.select_columns([id_col, vec_col]).materialize().to_arrow_refs()

    def block_topk(tq: pa.Table, all_refs: list) -> pa.Table:
        ids_q = np.asarray(tq[id_col].to_pylist(), dtype=np.int64)
        empty = pa.table(
            {
                "vec_id": pa.array([], pa.int64()),
                "rank": pa.array([], pa.int32()),
                "nbr_id": pa.array([], pa.int64()),
                "cosine": pa.array([], pa.float64()),
            }
        )
        nq = len(ids_q)
        if nq == 0:
            return empty
        mq = _normalize_rows(_to_matrix(tq, vec_col))
        buf_s = np.empty((nq, 0), dtype=np.float64)
        buf_i = np.empty((nq, 0), dtype=np.int64)
        for r in all_refs:  # nested refs are NOT auto-resolved: stream blocks
            tb = ray.get(r)
            ids_b = np.asarray(tb[id_col].to_pylist(), dtype=np.int64)
            if len(ids_b) == 0:
                continue
            mb = _normalize_rows(_to_matrix(tb, vec_col))
            sims = mq @ mb.T
            sims[ids_q[:, None] == ids_b[None, :]] = -np.inf  # self-edges out
            kk = min(k, sims.shape[1])
            part = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
            buf_s = np.hstack([buf_s, np.take_along_axis(sims, part, axis=1)])
            buf_i = np.hstack([buf_i, ids_b[part]])
            # shrink back to k, ties to the smaller id: a stable sort over
            # id-ascending-reordered rows resolves equal cosines by id
            oid = np.argsort(buf_i, axis=1, kind="stable")
            s2 = np.take_along_axis(buf_s, oid, axis=1)
            i2 = np.take_along_axis(buf_i, oid, axis=1)
            osim = np.argsort(-s2, axis=1, kind="stable")[:, :k]
            buf_s = np.take_along_axis(s2, osim, axis=1)
            buf_i = np.take_along_axis(i2, osim, axis=1)
        valid = np.isfinite(buf_s)  # -inf = self slot when corpus ≤ k
        nvalid = valid.sum(axis=1).astype(np.int64)
        total = int(nvalid.sum())
        if total == 0:
            return empty
        ranks = (
            np.arange(total, dtype=np.int64)
            - np.repeat(np.cumsum(nvalid) - nvalid, nvalid)
            + 1
        )
        return pa.table(
            {
                "vec_id": pa.array(np.repeat(ids_q, nvalid), pa.int64()),
                "rank": pa.array(ranks.astype(np.int32), pa.int32()),
                "nbr_id": pa.array(buf_i[valid], pa.int64()),
                "cosine": pa.array(round_half_up4_arr(buf_s[valid]), pa.float64()),
            }
        )

    return ray.data.from_arrow_refs(
        dataflow.on_blocks(block_topk, refs, [refs] * len(refs))
    )


def knn_graph_lsh(
    ds,
    k: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    n_bits: int = 8,
    n_tables: int = 4,
    seed: int = 42,
    max_bucket_size: int = 4096,
    n_slices: int = 256,
):
    """Approximate (LSH-bucketed) cosine kNN graph — the near-linear scale
    path for :func:`knn_graph`: candidates are co-members of any
    (hyperplane-table, bucket); each bucket group computes its members'
    exact in-group top-k; a cross-table dedup plus one per-vec top-k merge
    yields each node's best k among ALL its candidates (per-group top-k →
    global top-k is lossless over the candidate set — only recall vs the
    exact graph is sacrificed, growing with ``n_tables``). Oversize buckets
    (boilerplate/zero vectors) are dropped like every bucketed op here.

    Output matches :func:`knn_graph`: (vec_id, rank, nbr_id, cosine),
    tie-break (cosine desc, nbr_id asc), round-half-away-4."""
    from .dedup import round_half_up4_arr

    probe = ds.select_columns([vec_col]).limit(1).take(1)
    if not probe:
        return dataflow.typed_empty(
            {
                "vec_id": pa.int64(),
                "rank": pa.int32(),
                "nbr_id": pa.int64(),
                "cosine": pa.float64(),
            }
        )
    dim = len(probe[0][vec_col])
    planes = [_hyperplanes(dim, n_bits, seed + t) for t in range(n_tables)]
    weights = (1 << np.arange(n_bits)).astype(np.int64)

    def emit_buckets(batch: pa.Table) -> pa.Table:
        ids = np.asarray(batch[id_col].to_pylist(), dtype=np.int64)
        if len(ids) == 0:
            return pa.table(
                {
                    "t": pa.array([], pa.int32()),
                    "bucket": pa.array([], pa.int64()),
                    "doc_id": pa.array([], pa.int64()),
                    "vec": pa.array([], pa.list_(pa.float64())),
                }
            )
        m = _to_matrix(batch, vec_col)
        vec_lists = m.tolist()
        cols = {"t": [], "bucket": [], "doc_id": [], "vec": []}
        for t, pl in enumerate(planes):
            buckets = ((m @ pl.T) > 0) @ weights
            cols["t"].extend([t] * len(ids))
            cols["bucket"].extend(int(x) for x in buckets)
            cols["doc_id"].extend(int(x) for x in ids)
            cols["vec"].extend(vec_lists)
        return pa.table(
            {
                "t": pa.array(cols["t"], pa.int32()),
                "bucket": pa.array(cols["bucket"], pa.int64()),
                "doc_id": pa.array(cols["doc_id"], pa.int64()),
                "vec": pa.array(cols["vec"], pa.list_(pa.float64())),
            }
        )

    def group_topk(group: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "vec_id": pa.array([], pa.int64()),
                "nbr_id": pa.array([], pa.int64()),
                "cosine": pa.array([], pa.float64()),
            }
        )
        ids = np.asarray(group["doc_id"].to_pylist(), dtype=np.int64)
        m_cnt = len(ids)
        if m_cnt < 2 or m_cnt > max_bucket_size:
            return empty
        m = _normalize_rows(
            np.asarray(group["vec"].to_pylist(), dtype=np.float64)
        )
        sims = m @ m.T
        np.fill_diagonal(sims, -np.inf)
        kk = min(k, m_cnt - 1)
        part = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
        cand = np.take_along_axis(sims, part, axis=1)
        rows = np.repeat(ids, kk)
        return pa.table(
            {
                "vec_id": pa.array(rows, pa.int64()),
                "nbr_id": pa.array(ids[part].reshape(-1), pa.int64()),
                "cosine": pa.array(cand.reshape(-1), pa.float64()),
            }
        )

    cand = (
        ds.select_columns([id_col, vec_col])
        .map_batches(emit_buckets, batch_format="pyarrow")
        .groupby(["t", "bucket"])
        .map_groups(group_topk, batch_format="pyarrow")
    )

    add_slice = dataflow.add_slice("vec_id", n_slices)

    def merge_slice(group: pa.Table) -> pa.Table:
        v = group["vec_id"].to_numpy(zero_copy_only=False)
        nbr = group["nbr_id"].to_numpy(zero_copy_only=False)
        cos = group["cosine"].to_numpy(zero_copy_only=False)
        # cross-table dedup of (v, nbr), then per-v rank (cos desc, nbr asc)
        order = np.lexsort((nbr, -cos, v))
        v2, n2, c2 = v[order], nbr[order], cos[order]
        keep = np.ones(len(v2), dtype=bool)
        # identical (v, nbr) rows are adjacent within the (-cos, nbr) order
        # only if their cosines agree — they do (exact per pair), so sort by
        # (v, nbr) for the dedup pass first
        d_order = np.lexsort((n2, v2))
        vd, nd = v2[d_order], n2[d_order]
        dup = np.zeros(len(vd), dtype=bool)
        dup[1:] = (vd[1:] == vd[:-1]) & (nd[1:] == nd[:-1])
        keep[d_order] = ~dup
        v2, n2, c2 = v2[keep], n2[keep], c2[keep]
        group_start = np.zeros(len(v2), dtype=np.int64)
        new_group = np.flatnonzero(np.diff(v2)) + 1
        group_start[new_group] = new_group
        np.maximum.accumulate(group_start, out=group_start)
        pos = np.arange(len(v2)) - group_start
        sel = pos < k
        return pa.table(
            {
                "vec_id": pa.array(v2[sel], pa.int64()),
                "rank": pa.array((pos[sel] + 1).astype(np.int32), pa.int32()),
                "nbr_id": pa.array(n2[sel], pa.int64()),
                "cosine": pa.array(round_half_up4_arr(c2[sel]), pa.float64()),
            }
        )

    return (
        cand.map_batches(add_slice, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(merge_slice, batch_format="pyarrow")
    )


def margin_mine(
    ds_src,
    ds_tgt,
    k: int = 4,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
):
    """Margin-based cross-corpus neighbor mining (the Artetxe & Schwenk
    ratio-margin of LASER/CCMatrix bitext mining, public method): for every
    source vector, its best cosine match in the target corpus scored by
    ``margin = cos(x, y) / ((avgₖ(x→tgt) + avgₖ(y→src)) / 2)`` — the margin
    normalizes away "hubness" so a 1.0+ score means the pair is mutually
    exceptional, not just near a hub. Returns (src_id, tgt_id, cosine,
    margin), one row per source vector; threshold downstream.

    Scale design: same block-pair streaming as :func:`knn_graph` — both
    corpora stay as object-store Arrow blocks; one task per source block
    streams the target blocks (forward top-k) and one per target block
    streams the source blocks (reverse top-k). The reverse side reduces to
    ONE (id, avg) row per target vector, which is collected and ``ray.put``
    broadcast for the final margin attach — choose ``ds_tgt`` as the smaller
    corpus, or pre-bucket with LSH/k-means at web scale (the same guidance
    as knn_graph). Compute is the unavoidable O(N·M/P) of exact mining."""
    import ray

    from .dedup import round_half_up4_arr

    refs_s = ds_src.select_columns([id_col, vec_col]).materialize().to_arrow_refs()
    refs_t = ds_tgt.select_columns([id_col, vec_col]).materialize().to_arrow_refs()

    def block_stats(tq: pa.Table, other_refs: list) -> pa.Table:
        """Per query row: best other-side id/cosine + mean of top-k cosines."""
        ids_q = np.asarray(tq[id_col].to_pylist(), dtype=np.int64)
        nq = len(ids_q)
        if nq == 0:
            return pa.table(
                {
                    "qid": pa.array([], pa.int64()),
                    "bid": pa.array([], pa.int64()),
                    "cos": pa.array([], pa.float64()),
                    "avg": pa.array([], pa.float64()),
                }
            )
        mq = _normalize_rows(_to_matrix(tq, vec_col))
        buf_s = np.empty((nq, 0), dtype=np.float64)
        buf_i = np.empty((nq, 0), dtype=np.int64)
        for r in other_refs:
            tb = ray.get(r)
            ids_b = np.asarray(tb[id_col].to_pylist(), dtype=np.int64)
            if len(ids_b) == 0:
                continue
            mb = _normalize_rows(_to_matrix(tb, vec_col))
            sims = mq @ mb.T
            kk = min(k, sims.shape[1])
            part = np.argpartition(-sims, kk - 1, axis=1)[:, :kk]
            buf_s = np.hstack([buf_s, np.take_along_axis(sims, part, axis=1)])
            buf_i = np.hstack([buf_i, ids_b[part]])
            oid = np.argsort(buf_i, axis=1, kind="stable")
            s2 = np.take_along_axis(buf_s, oid, axis=1)
            i2 = np.take_along_axis(buf_i, oid, axis=1)
            osim = np.argsort(-s2, axis=1, kind="stable")[:, :k]
            buf_s = np.take_along_axis(s2, osim, axis=1)
            buf_i = np.take_along_axis(i2, osim, axis=1)
        if buf_s.shape[1] == 0:
            return pa.table(
                {
                    "qid": pa.array([], pa.int64()),
                    "bid": pa.array([], pa.int64()),
                    "cos": pa.array([], pa.float64()),
                    "avg": pa.array([], pa.float64()),
                }
            )
        return pa.table(
            {
                "qid": pa.array(ids_q, pa.int64()),
                "bid": pa.array(buf_i[:, 0], pa.int64()),
                "cos": pa.array(buf_s[:, 0], pa.float64()),
                "avg": pa.array(buf_s.mean(axis=1), pa.float64()),
            }
        )

    # reverse pass: one (id, avg) row per target vector — the broadcast side
    rev_tables = ray.get(
        dataflow.on_blocks(block_stats, refs_t, [refs_s] * len(refs_t))
    )
    rev_ids = np.concatenate(
        [t["qid"].to_numpy(zero_copy_only=False) for t in rev_tables]
        or [np.empty(0, np.int64)]
    )
    rev_avg = np.concatenate(
        [t["avg"].to_numpy(zero_copy_only=False) for t in rev_tables]
        or [np.empty(0, np.float64)]
    )
    order = np.argsort(rev_ids)
    rev_ref = ray.put((rev_ids[order], rev_avg[order]))

    fwd = ray.data.from_arrow_refs(
        dataflow.on_blocks(block_stats, refs_s, [refs_t] * len(refs_s))
    )

    def attach(batch: pa.Table) -> pa.Table:
        rid, ravg = ray.get(rev_ref)
        bid = batch["bid"].to_numpy(zero_copy_only=False)
        cos = batch["cos"].to_numpy(zero_copy_only=False)
        af = batch["avg"].to_numpy(zero_copy_only=False)
        loc = np.searchsorted(rid, bid)
        ar = ravg[loc]
        margin = cos / ((af + ar) / 2.0)
        return pa.table(
            {
                "src_id": batch["qid"],
                "tgt_id": batch["bid"],
                "cosine": pa.array(round_half_up4_arr(cos)),
                "margin": pa.array(round_half_up4_arr(margin)),
            }
        )

    return fwd.map_batches(attach, batch_format="pyarrow")


def knn_recall(
    ds,
    k: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    n_bits: int = 8,
    n_tables: int = 4,
    seed: int = 42,
    max_bucket_size: int = 4096,
    num_slices: int | None = None,
):
    """ANN quality evaluation: per-vector recall@k of the LSH-bucketed graph
    (:func:`knn_graph_lsh`) against the exact graph (:func:`knn_graph`) —
    the measurement a pipeline owner runs before trusting the approximate
    path at scale. Returns ``(vec_id, n_exact, n_hit, recall)`` per vector
    (n_exact = min(k, N−1); recall = hits / n_exact, rounded half-away-4).

    Scale design: both graphs stream their (vec, nbr) edges; the tagged
    union is hash-partitioned by a coarse vec-id SLICE (never a per-vector
    groupby) and each slice counts matches vectorized (lexsort + adjacent-
    pair detection). Nothing but 17-byte edge rows ever shuffles."""
    from .dedup import round_half_up4_arr

    if num_slices is None:
        num_slices = dataflow.num_slices()

    exact = knn_graph(ds, k=k, id_col=id_col, vec_col=vec_col)
    approx = knn_graph_lsh(
        ds,
        k=k,
        id_col=id_col,
        vec_col=vec_col,
        n_bits=n_bits,
        n_tables=n_tables,
        seed=seed,
        max_bucket_size=max_bucket_size,
    )

    def tag(side: int):
        def fn(batch: pa.Table) -> pa.Table:
            v = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
            n = np.asarray(batch["nbr_id"].to_pylist(), dtype=np.int64)
            sl = dataflow.slice_of(num_slices, v)
            return pa.table(
                {
                    "v": pa.array(v),
                    "n": pa.array(n),
                    "side": pa.array(np.full(len(v), side, dtype=np.int8)),
                    "slice": pa.array(sl),
                }
            )

        return fn

    union = exact.map_batches(tag(0), batch_format="pyarrow").union(
        approx.map_batches(tag(1), batch_format="pyarrow")
    )

    def score(tbl: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "vec_id": pa.array([], pa.int64()),
                "n_exact": pa.array([], pa.int64()),
                "n_hit": pa.array([], pa.int64()),
                "recall": pa.array([], pa.float64()),
            }
        )
        if len(tbl) == 0:
            return empty
        v = tbl["v"].combine_chunks().to_numpy(zero_copy_only=False)
        n = tbl["n"].combine_chunks().to_numpy(zero_copy_only=False)
        s = tbl["side"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.lexsort((s, n, v))
        v, n, s = v[order], n[order], s[order]
        # an exact edge is "hit" when the NEXT row is the same (v, n) pair
        # from the approx side (per-side edges are distinct by construction)
        hit = np.zeros(len(v), dtype=bool)
        if len(v) > 1:
            hit[:-1] = (v[1:] == v[:-1]) & (n[1:] == n[:-1]) & (s[:-1] == 0) & (s[1:] == 1)
        is_exact = s == 0
        uniq, inv = np.unique(v[is_exact], return_inverse=True)
        if len(uniq) == 0:
            return empty
        n_exact = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        n_hit = np.bincount(inv, weights=hit[is_exact].astype(np.float64), minlength=len(uniq)).astype(np.int64)
        return pa.table(
            {
                "vec_id": pa.array(uniq),
                "n_exact": pa.array(n_exact),
                "n_hit": pa.array(n_hit),
                "recall": pa.array(round_half_up4_arr(n_hit / n_exact)),
            }
        )

    return union.groupby("slice").map_groups(score, batch_format="pyarrow")


def pq_knn(
    ds,
    n_queries: int = 3,
    m: int = 2,
    k_codes: int = 8,
    iters: int = 2,
    top_k: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pa.Table:
    """Product-quantization ANN (Jégou et al., PQ with asymmetric distance
    computation): the memory-compressed scale path past IVF — each vector
    stores only ``m`` sub-codebook codes (m bytes at k_codes ≤ 256), and a
    query scans codes with an (m × k_codes) lookup table instead of raw
    floats. ~dim·4/m bytes saved per vector; at 100 TB the code table is
    what fits in RAM when the float matrix cannot.

    Training: one deterministic Lloyd's k-means per subspace over the
    sliced embedding column (reuses ops.clustering.kmeans — ≤ k partial
    rows per block per iteration reach the driver). Encoding + search are
    ONE streaming pass: codes assigned per batch (d2 asc, code asc
    tie-break — identical to kmeans assignment), ADC distance summed from
    broadcast per-query LUTs, per-batch partial top-k, tiny driver merge
    (the knn_cosine pattern). Queries are the ``vec_id < n_queries`` rows.

    Returns (query_id, rank, vec_id, adist2) with adist2 the 4-rounded ADC
    squared distance; ranking uses the unrounded value (ties → vec_id)."""
    import ray

    from .clustering import kmeans

    first = ds.take(1)[0][vec_col]
    dim = len(first)
    if dim % m:
        raise ValueError(f"dim {dim} must divide into m={m} subspaces")
    dsub = dim // m

    sub_cents = []
    for s in range(m):
        lo, hi = s * dsub, (s + 1) * dsub

        def slc(batch: pa.Table, lo=lo, hi=hi) -> pa.Table:
            sub = _to_matrix(batch, vec_col)[:, lo:hi]
            return pa.table(
                {
                    id_col: batch[id_col],
                    vec_col: pa.array(sub.tolist()),
                }
            )

        sub_ds = ds.select_columns([id_col, vec_col]).map_batches(
            slc, batch_format="pyarrow"
        )
        cents, _ = kmeans(
            sub_ds, k=k_codes, iters=iters, id_col=id_col, vec_col=vec_col
        )
        sub_cents.append(np.asarray(cents, dtype=np.float64))

    # query vectors: the n_queries smallest ids (tiny, collected once)
    def qfilter(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ids < n_queries))

    qrows = sorted(
        ds.select_columns([id_col, vec_col])
        .map_batches(qfilter, batch_format="pyarrow")
        .take_all(),
        key=lambda r: r[id_col],
    )
    qids = np.asarray([r[id_col] for r in qrows], dtype=np.int64)
    qm = np.asarray([r[vec_col] for r in qrows], dtype=np.float64)

    # per-subspace LUTs: (Q, k_codes) squared distances, direct (e-c)²
    luts = np.stack(
        [
            (
                (qm[:, s * dsub : (s + 1) * dsub, None] - sub_cents[s].T[None])
                ** 2
            ).sum(axis=1)
            for s in range(m)
        ]
    )  # (m, Q, k)
    cents_ref = ray.put(np.stack(sub_cents))  # (m, k, dsub)
    lut_ref = ray.put(luts)
    qids_ref = ray.put(qids)

    def partial(batch: pa.Table) -> pa.Table:
        cents = ray.get(cents_ref)
        lut = ray.get(lut_ref)
        qv = ray.get(qids_ref)
        ids = np.asarray(batch[id_col].to_pylist(), dtype=np.int64)
        mat = _to_matrix(batch, vec_col)
        n = len(ids)
        d2 = np.zeros((len(qv), n), dtype=np.float64)
        for s in range(m):
            sub = mat[:, s * dsub : (s + 1) * dsub]
            dists = ((sub[:, :, None] - cents[s].T[None]) ** 2).sum(axis=1)
            code = np.argmin(dists, axis=1)  # ties → lowest code, like SQL
            d2 += lut[s][:, code]
        out_q, out_id, out_d = [], [], []
        kk = min(top_k, n)
        for qi in range(len(qv)):
            idx = np.lexsort((ids, d2[qi]))[:kk]
            out_q.extend([int(qv[qi])] * len(idx))
            out_id.extend(ids[idx])
            out_d.extend(d2[qi][idx])
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_id, pa.int64()),
                "d2": pa.array(out_d, pa.float64()),
            }
        )

    partials = ds.select_columns([id_col, vec_col]).map_batches(
        partial, batch_format="pyarrow"
    )
    per_query: dict[int, list] = {}
    for b in partials.iter_batches(batch_size=None, batch_format="pyarrow"):
        for qi, vid, d in zip(
            b["query_id"].to_pylist(),
            b["vec_id"].to_pylist(),
            b["d2"].to_pylist(),
        ):
            per_query.setdefault(qi, []).append((d, vid))
    rows_q, rows_r, rows_id, rows_d = [], [], [], []
    for qi in sorted(per_query):
        top = heapq.nsmallest(top_k, per_query[qi])
        for r, (d, vid) in enumerate(top):
            rows_q.append(qi)
            rows_r.append(r + 1)
            rows_id.append(vid)
            rows_d.append(round_half_up4(d))
    return pa.table(
        {
            "query_id": pa.array(rows_q, pa.int64()),
            "rank": pa.array(rows_r, pa.int64()),
            "vec_id": pa.array(rows_id, pa.int64()),
            "adist2": pa.array(rows_d, pa.float64()),
        }
    )


def ivf_pq_knn(
    ds,
    n_queries: int = 3,
    nlist: int = 4,
    nprobe: int = 2,
    m: int = 2,
    k_codes: int = 8,
    iters: int = 2,
    top_k: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
) -> pa.Table:
    """IVF-PQ (the FAISS billion-scale workhorse): a coarse k-means
    quantizer prunes the corpus to each query's ``nprobe`` nearest lists,
    and only those lists are ADC-ranked against the PQ codes
    (by_residual=False — codes quantize raw vectors, keeping the oracle
    join-expressible; residual encoding is a recall refinement, not a
    scale property). On a real deployment the lists are partitioned
    parquet (ivf_write) and probing reads ONLY matching partitions
    (ivf_knn_pruned's partition-pruned read); here the pruning is a
    per-batch mask so the whole path stays one streaming pass.

    Returns (query_id, rank, vec_id, adist2) like :func:`pq_knn`; vectors
    outside every probed list of a query never enter its ranking — the
    approximation the oracle reproduces exactly."""
    import ray

    from .clustering import kmeans

    first = ds.take(1)[0][vec_col]
    dim = len(first)
    if dim % m:
        raise ValueError(f"dim {dim} must divide into m={m} subspaces")
    dsub = dim // m

    # coarse quantizer: full-dim kmeans, nlist centroids
    coarse_cents, _ = kmeans(
        ds, k=nlist, iters=iters, id_col=id_col, vec_col=vec_col
    )
    coarse_cents = np.asarray(coarse_cents, dtype=np.float64)

    # PQ codebooks: one kmeans per subspace (identical to pq_knn)
    sub_cents = []
    for s in range(m):
        lo, hi = s * dsub, (s + 1) * dsub

        def slc(batch: pa.Table, lo=lo, hi=hi) -> pa.Table:
            sub = _to_matrix(batch, vec_col)[:, lo:hi]
            return pa.table(
                {id_col: batch[id_col], vec_col: pa.array(sub.tolist())}
            )

        sub_ds = ds.select_columns([id_col, vec_col]).map_batches(
            slc, batch_format="pyarrow"
        )
        cents, _ = kmeans(
            sub_ds, k=k_codes, iters=iters, id_col=id_col, vec_col=vec_col
        )
        sub_cents.append(np.asarray(cents, dtype=np.float64))

    def qfilter(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ids < n_queries))

    qrows = sorted(
        ds.select_columns([id_col, vec_col])
        .map_batches(qfilter, batch_format="pyarrow")
        .take_all(),
        key=lambda r: r[id_col],
    )
    qids = np.asarray([r[id_col] for r in qrows], dtype=np.int64)
    qm = np.asarray([r[vec_col] for r in qrows], dtype=np.float64)

    # each query's probed coarse lists: nprobe smallest d2, ties → lower id
    qc = ((qm[:, :, None] - coarse_cents.T[None]) ** 2).sum(axis=1)  # (Q, nlist)
    order = np.lexsort(
        (np.broadcast_to(np.arange(nlist), qc.shape), qc), axis=1
    )
    probed = np.zeros((len(qids), nlist), dtype=bool)
    for qi in range(len(qids)):
        probed[qi, order[qi, :nprobe]] = True

    luts = np.stack(
        [
            (
                (qm[:, s * dsub : (s + 1) * dsub, None] - sub_cents[s].T[None])
                ** 2
            ).sum(axis=1)
            for s in range(m)
        ]
    )
    cents_ref = ray.put(np.stack(sub_cents))
    coarse_ref = ray.put(coarse_cents)
    lut_ref = ray.put(luts)
    qids_ref = ray.put(qids)
    probed_ref = ray.put(probed)

    def partial(batch: pa.Table) -> pa.Table:
        cents = ray.get(cents_ref)
        coarse = ray.get(coarse_ref)
        lut = ray.get(lut_ref)
        qv = ray.get(qids_ref)
        pr = ray.get(probed_ref)
        ids = np.asarray(batch[id_col].to_pylist(), dtype=np.int64)
        mat = _to_matrix(batch, vec_col)
        n = len(ids)
        cd = ((mat[:, :, None] - coarse.T[None]) ** 2).sum(axis=1)
        clist = np.argmin(cd, axis=1)  # ties → lowest list, like SQL
        d2 = np.zeros((len(qv), n), dtype=np.float64)
        for s in range(m):
            sub = mat[:, s * dsub : (s + 1) * dsub]
            dists = ((sub[:, :, None] - cents[s].T[None]) ** 2).sum(axis=1)
            code = np.argmin(dists, axis=1)
            d2 += lut[s][:, code]
        out_q, out_id, out_d = [], [], []
        for qi in range(len(qv)):
            mask = pr[qi][clist]
            if not mask.any():
                continue
            mids, mds = ids[mask], d2[qi][mask]
            idx = np.lexsort((mids, mds))[: min(top_k, len(mids))]
            out_q.extend([int(qv[qi])] * len(idx))
            out_id.extend(mids[idx])
            out_d.extend(mds[idx])
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_id, pa.int64()),
                "d2": pa.array(out_d, pa.float64()),
            }
        )

    partials = ds.select_columns([id_col, vec_col]).map_batches(
        partial, batch_format="pyarrow"
    )
    per_query: dict[int, list] = {}
    for b in partials.iter_batches(batch_size=None, batch_format="pyarrow"):
        for qi, vid, d in zip(
            b["query_id"].to_pylist(),
            b["vec_id"].to_pylist(),
            b["d2"].to_pylist(),
        ):
            per_query.setdefault(qi, []).append((d, vid))
    rows_q, rows_r, rows_id, rows_d = [], [], [], []
    for qi in sorted(per_query):
        top = heapq.nsmallest(top_k, per_query[qi])
        for r, (d, vid) in enumerate(top):
            rows_q.append(qi)
            rows_r.append(r + 1)
            rows_id.append(vid)
            rows_d.append(round_half_up4(d))
    return pa.table(
        {
            "query_id": pa.array(rows_q, pa.int64()),
            "rank": pa.array(rows_r, pa.int64()),
            "vec_id": pa.array(rows_id, pa.int64()),
            "adist2": pa.array(rows_d, pa.float64()),
        }
    )


def _labeled_topk(
    ds,
    n_queries: int,
    k: int,
    id_col: str,
    vec_col: str,
    label_col: str,
    with_label_hist: bool = False,
):
    """Shared retrieval pipeline of the labeled-eval family
    (:func:`knn_label_precision` / :func:`ndcg_label_eval` /
    :func:`retrieval_rank_eval`): queries = rows with id < n_queries,
    exact cosine top-``k`` per query over the rest of the corpus (self
    excluded; ties by (score desc, id asc)), per-batch partial top-k with
    labels riding along, driver merges only queries × k rows. With
    ``with_label_hist`` the corpus label histogram rides the same pass as
    sentinel rows (query −1) — no extra scan.

    Returns ``(per_query, lab_of[, label_counts])`` where ``per_query``
    maps query id → [(-score, vec_id, label), …] partials (heapq-ready)
    and ``lab_of`` maps query id → its label."""
    import ray

    def qfilter(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ids < n_queries))

    qrows = sorted(
        ds.select_columns([id_col, vec_col, label_col])
        .map_batches(qfilter, batch_format="pyarrow")
        .take_all(),
        key=lambda r: r[id_col],
    )
    if with_label_hist and any(r[id_col] < 0 for r in qrows):
        # query id −1 is the in-band label-histogram sentinel; a real
        # negative id would fold its neighbor rows into the label counts
        raise ValueError(
            "_labeled_topk(with_label_hist=True) requires all ids >= 0 "
            "(query id -1 is reserved as the histogram sentinel)"
        )
    qids = np.asarray([r[id_col] for r in qrows], dtype=np.int64)
    qlabels = np.asarray([r[label_col] for r in qrows], dtype=np.int64)
    qm = _normalize_rows(
        np.asarray([r[vec_col] for r in qrows], dtype=np.float64)
    )
    q_ref = ray.put((qids, qm))

    def partial(batch: pa.Table) -> pa.Table:
        qv, qmat = ray.get(q_ref)
        ids = np.asarray(batch[id_col].to_pylist(), dtype=np.int64)
        labels = np.asarray(batch[label_col].to_pylist(), dtype=np.int64)
        m = _normalize_rows(_to_matrix(batch, vec_col))
        sims = qmat @ m.T
        out_q, out_id, out_s, out_l = [], [], [], []
        for qi in range(len(qv)):
            row = sims[qi]
            mask = ids != qv[qi]  # self excluded
            mids, mrow, mlab = ids[mask], row[mask], labels[mask]
            idx = np.lexsort((mids, -mrow))[: min(k, len(mids))]
            out_q.extend([int(qv[qi])] * len(idx))
            out_id.extend(mids[idx])
            out_s.extend(mrow[idx])
            out_l.extend(mlab[idx])
        if with_label_hist:
            lu, lc = np.unique(labels, return_counts=True)
            out_q.extend([-1] * len(lu))
            out_id.extend(lu.tolist())  # label value
            out_s.extend(lc.astype(np.float64).tolist())  # count
            out_l.extend([0] * len(lu))
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_id, pa.int64()),
                "cosine": pa.array(out_s, pa.float64()),
                "nbr_label": pa.array(out_l, pa.int64()),
            }
        )

    partials = ds.select_columns([id_col, vec_col, label_col]).map_batches(
        partial, batch_format="pyarrow"
    )
    per_query: dict[int, list] = {}
    label_counts: dict[int, int] = {}
    for b in partials.iter_batches(batch_size=None, batch_format="pyarrow"):
        for qi, vid, s, lb in zip(
            b["query_id"].to_pylist(),
            b["vec_id"].to_pylist(),
            b["cosine"].to_pylist(),
            b["nbr_label"].to_pylist(),
        ):
            if qi == -1:
                label_counts[vid] = label_counts.get(vid, 0) + int(s)
            else:
                per_query.setdefault(qi, []).append((-s, vid, lb))
    lab_of = dict(zip(qids.tolist(), qlabels.tolist()))
    if with_label_hist:
        return per_query, lab_of, label_counts
    return per_query, lab_of


def knn_label_precision(
    ds,
    n_queries: int = 5,
    k: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    label_col: str = "label",
) -> pa.Table:
    """Labeled retrieval quality (the kNN-classifier eval): for each query
    vector (``vec_id < n_queries``), exact cosine top-``k`` over the rest
    of the corpus (self excluded) and the fraction of neighbors sharing
    the query's label — precision@k per query, the standard embedding-
    quality score when a label column exists.

    Same scale shape as :func:`knn_cosine`: per-batch partial top-k
    (labels ride along), tiny driver merge (the shared
    :func:`_labeled_topk` pipeline). Returns
    ``(query_id, k_eff, n_match, precision)``."""
    per_query, lab_of = _labeled_topk(
        ds, n_queries, k, id_col, vec_col, label_col
    )
    rows = {"query_id": [], "k_eff": [], "n_match": [], "precision": []}
    for qi in sorted(per_query):
        top = heapq.nsmallest(k, per_query[qi])
        n_match = sum(1 for _, _, lb in top if lb == lab_of[qi])
        rows["query_id"].append(qi)
        rows["k_eff"].append(len(top))
        rows["n_match"].append(n_match)
        rows["precision"].append(
            round_half_up4(n_match / len(top)) if top else 0.0
        )
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "k_eff": pa.array(rows["k_eff"], pa.int64()),
            "n_match": pa.array(rows["n_match"], pa.int64()),
            "precision": pa.array(rows["precision"], pa.float64()),
        }
    )


def ndcg_label_eval(
    ds,
    n_queries: int = 5,
    k: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    label_col: str = "label",
) -> pa.Table:
    """NDCG@k of labeled retrieval (binary gains: neighbor shares the
    query's label) — the position-sensitive companion to
    :func:`knn_label_precision`: a ranking that front-loads its matches
    scores higher than one that buries them, even at equal precision.

    ``DCG = Σᵢ relᵢ / log₂(i+1)`` accumulated STRICTLY left-to-right (a
    Python loop here, a recursive CTE in the oracle — identical operand
    sequence, and numpy/DuckDB ``log2`` agree bitwise on the small-integer
    arguments), ``IDCG`` the same over the ideal all-matches-first ranking;
    ``ndcg = round(DCG/IDCG, 4)``, 0 when there are no matches. Physical
    plan = the shared :func:`_labeled_topk` pipeline: per-batch partial
    top-k with labels riding along, driver merges only queries × k
    rows."""
    per_query, lab_of = _labeled_topk(
        ds, n_queries, k, id_col, vec_col, label_col
    )
    rows = {"query_id": [], "k_eff": [], "n_match": [], "dcg": [], "idcg": [], "ndcg": []}
    for qi in sorted(per_query):
        top = heapq.nsmallest(k, per_query[qi])
        gains = [1 if lb == lab_of[qi] else 0 for _, _, lb in top]
        dcg = 0.0
        for i, g in enumerate(gains):  # strict left-to-right accumulation
            dcg = dcg + (float(g) / np.log2(float(i + 2)))
        n_match = sum(gains)
        idcg = 0.0
        for i in range(n_match):
            idcg = idcg + (1.0 / np.log2(float(i + 2)))
        rows["query_id"].append(qi)
        rows["k_eff"].append(len(top))
        rows["n_match"].append(n_match)
        rows["dcg"].append(round_half_up4(dcg))
        rows["idcg"].append(round_half_up4(idcg))
        rows["ndcg"].append(round_half_up4(dcg / idcg) if n_match else 0.0)
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "k_eff": pa.array(rows["k_eff"], pa.int64()),
            "n_match": pa.array(rows["n_match"], pa.int64()),
            "dcg": pa.array(rows["dcg"], pa.float64()),
            "idcg": pa.array(rows["idcg"], pa.float64()),
            "ndcg": pa.array(rows["ndcg"], pa.float64()),
        }
    )


def pair_eval(pred_ds, truth_ds, id_a: str = "id_a", id_b: str = "id_b"):
    """Candidate-pair evaluation harness: precision / recall / F1 of a
    PREDICTED pair set (LSH candidates, SimHash buckets, blocking output,
    perceptual-hash matches) against a ground-truth pair set — the metric
    loop every dedup/linkage tuning session runs ("did lowering the band
    width cost recall?").

    Pairs are unordered: both inputs normalize to (min, max) and
    deduplicate, so orientation and repeats can't skew counts. Scale
    shape: both sides tag into one stream, ONE md5 pair-slice groupby
    computes per-slice (tp, fp, fn) partials vectorized (np.unique row
    identity — no hash collisions), and only O(slices) scalar rows reach
    the final merge. Counts are exact int64; precision/recall/F1 are the
    mirrored fixed float expressions ``tp/np_``, ``tp/nt``,
    ``(2.0*p*r)/(p+r)`` ⇒ bitwise.

    Returns a one-row pa.Table ``(n_pred, n_truth, tp, fp, fn, precision,
    recall, f1)`` (NULL metrics when a denominator is 0).
    """
    num_slices = dataflow.num_slices()

    def tag(kind: int):
        def fn(batch: pa.Table) -> pa.Table:
            if batch.num_rows == 0:
                return pa.table(
                    {
                        "a": pa.array([], pa.int64()),
                        "b": pa.array([], pa.int64()),
                        "kind": pa.array([], pa.int8()),
                        "slice": pa.array([], pa.int32()),
                    }
                )
            x = batch[id_a].cast(pa.int64()).to_numpy(zero_copy_only=False)
            y = batch[id_b].cast(pa.int64()).to_numpy(zero_copy_only=False)
            lo, hi = np.minimum(x, y), np.maximum(x, y)
            sl = dataflow.slice_of(num_slices, lo, hi)
            return pa.table(
                {
                    "a": pa.array(lo),
                    "b": pa.array(hi),
                    "kind": pa.array(
                        np.full(len(lo), kind, dtype=np.int8), pa.int8()
                    ),
                    "slice": pa.array(sl),
                }
            )

        return fn

    def slice_counts(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table(
                {
                    "tp": pa.array([], pa.int64()),
                    "fp": pa.array([], pa.int64()),
                    "fn": pa.array([], pa.int64()),
                }
            )
        t = group.drop_columns(["slice"])
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        k = t["kind"].to_numpy(zero_copy_only=False)
        # distinct per side, then presence masks via row identity
        rows = np.stack([a, b, k.astype(np.int64)], axis=1)
        rows = np.unique(rows, axis=0)
        ab = rows[:, :2]
        kk = rows[:, 2]
        uniq, inv = np.unique(ab, axis=0, return_inverse=True)
        in_pred = np.bincount(
            inv, weights=(kk == 0).astype(np.int64), minlength=len(uniq)
        ) > 0
        in_truth = np.bincount(
            inv, weights=(kk == 1).astype(np.int64), minlength=len(uniq)
        ) > 0
        tp = int((in_pred & in_truth).sum())
        fp = int((in_pred & ~in_truth).sum())
        fn = int((~in_pred & in_truth).sum())
        return pa.table(
            {
                "tp": pa.array([tp], pa.int64()),
                "fp": pa.array([fp], pa.int64()),
                "fn": pa.array([fn], pa.int64()),
            }
        )

    unioned = pred_ds.map_batches(tag(0), batch_format="pyarrow").union(
        truth_ds.map_batches(tag(1), batch_format="pyarrow")
    )
    parts = (
        unioned.groupby("slice")
        .map_groups(slice_counts, batch_format="pyarrow")
        .to_pandas()  # O(slices) rows
    )
    tp = int(parts["tp"].sum()) if len(parts) else 0
    fp = int(parts["fp"].sum()) if len(parts) else 0
    fn = int(parts["fn"].sum()) if len(parts) else 0
    n_pred, n_truth = tp + fp, tp + fn
    p = float(tp) / float(n_pred) if n_pred > 0 else None
    r = float(tp) / float(n_truth) if n_truth > 0 else None
    f1 = (
        (2.0 * p * r) / (p + r)
        if p is not None and r is not None and (p + r) > 0
        else None
    )
    return pa.table(
        {
            "n_pred": pa.array([n_pred], pa.int64()),
            "n_truth": pa.array([n_truth], pa.int64()),
            "tp": pa.array([tp], pa.int64()),
            "fp": pa.array([fp], pa.int64()),
            "fn": pa.array([fn], pa.int64()),
            "precision": pa.array([p], pa.float64()),
            "recall": pa.array([r], pa.float64()),
            "f1": pa.array([f1], pa.float64()),
        }
    )


def retrieval_rank_eval(
    ds,
    n_queries: int = 5,
    k: int = 10,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    label_col: str = "label",
) -> pa.Table:
    """MRR / precision@k / recall@k of labeled retrieval — the rank-metric
    triple next to :func:`ndcg_label_eval` (same physical plan: per-batch
    partial top-k with labels riding along, driver merges queries × k
    rows; the corpus streams once). A neighbor is relevant iff it shares
    the query's label; ``n_relevant`` = label population minus the query
    itself, from a label-histogram combiner pass.

    Every metric is an EXACT integer ratio (``1/first_rank``,
    ``n_match/k_eff``, ``n_match/n_relevant``) ⇒ bitwise vs the SQL
    window oracle; MRR is 0 and first_rank NULL when no relevant neighbor
    makes the top-k. Returns a pa.Table ordered by query_id."""
    per_query, lab_of, label_counts = _labeled_topk(
        ds, n_queries, k, id_col, vec_col, label_col, with_label_hist=True
    )
    rows = {
        "query_id": [], "k_eff": [], "n_match": [], "first_rank": [],
        "mrr": [], "p_at_k": [], "recall_at_k": [],
    }
    for qi in sorted(per_query):
        top = heapq.nsmallest(k, per_query[qi])
        gains = [1 if lb == lab_of[qi] else 0 for _, _, lb in top]
        n_match = sum(gains)
        first = gains.index(1) + 1 if n_match else None
        n_rel = label_counts.get(int(lab_of[qi]), 0) - 1
        rows["query_id"].append(qi)
        rows["k_eff"].append(len(top))
        rows["n_match"].append(n_match)
        rows["first_rank"].append(first)
        rows["mrr"].append(1.0 / float(first) if first else 0.0)
        rows["p_at_k"].append(float(n_match) / float(len(top)) if top else None)
        rows["recall_at_k"].append(
            float(n_match) / float(n_rel) if n_rel > 0 else None
        )
    return pa.table(
        {
            "query_id": pa.array(rows["query_id"], pa.int64()),
            "k_eff": pa.array(rows["k_eff"], pa.int64()),
            "n_match": pa.array(rows["n_match"], pa.int64()),
            "first_rank": pa.array(rows["first_rank"], pa.int64()),
            "mrr": pa.array(rows["mrr"], pa.float64()),
            "p_at_k": pa.array(rows["p_at_k"], pa.float64()),
            "recall_at_k": pa.array(rows["recall_at_k"], pa.float64()),
        }
    )

"""Test-set decontamination: flag corpus documents that share word n-grams
with a (small) benchmark set.

The standard training-data hygiene pass (public recipe — GPT-3 App. C /
PaLM / Llama report 8–13-gram overlap checks): hash every word n-gram of the
benchmark side, broadcast the hash set, and stream the corpus through a
membership test. No reference-engine analogue (the reference indexes and
searches; it never cross-references two corpora), so this is a pure
beyond-reference training-data op.

Scale design (100 TB corpus, benchmark ≪ corpus):
* The benchmark side is aggregated to DISTINCT n-gram hashes (uint64) with a
  per-batch partial (`np.unique`) before the driver ever sees a row, so the
  driver holds one sorted uint64 array bounded by the benchmark vocabulary —
  MMLU/GSM8K-class suites are ≤ a few million grams (≤ 10s of MB). The array
  is `ray.put` ONCE and every corpus task reads it zero-copy from the object
  store (broadcast join — no shuffle of the 100-TB side).
* The corpus side is a single stateless `map_batches` over zero-copy Arrow:
  vectorized word hashing + polynomial shingle combine (same splitmix64
  scheme as `ops.dedup._shingle_hashes`) and an `np.isin`-style sorted
  `searchsorted` membership probe. No all-to-all anywhere.
* Word n-grams are joined on raw whitespace tokens (``str.split``), no case
  folding — bijective with the SQL oracle's ``array_to_string(w[i:i+n-1],
  ' ')`` join because whitespace cannot occur inside a token. 64-bit hash
  collisions are the only divergence source (~2⁻⁶⁴ per pair — negligible,
  and the oracle would catch one).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import dataflow
from .asciiws import split_ascii_ws
from .dedup import _shingle_hashes, _word_hashes

__all__ = ["benchmark_ngram_hashes", "decontaminate"]


def _doc_gram_hashes(text: str | None, n: int, cache: dict) -> np.ndarray:
    """Distinct word-n-gram hashes of one document; docs with < n words have
    NO n-grams (unlike dedup's short-doc synthetic-shingle contract — a
    3-word doc cannot contain a 5-gram)."""
    ws = split_ascii_ws(text or "")
    if len(ws) < n:
        return np.empty(0, dtype=np.uint64)
    return _shingle_hashes(_word_hashes(ws, cache), n)


def benchmark_ngram_hashes(bench_ds, n: int = 5, text_col: str = "text") -> np.ndarray:
    """Sorted distinct uint64 word-n-gram hashes of the benchmark side.

    Per-batch partial dedup (`np.unique`) runs in the tasks; the driver merge
    is bounded by the benchmark's distinct-gram count, not its row count.
    """

    def partial(batch: pa.Table) -> pa.Table:
        cache: dict = {}
        parts = [
            _doc_gram_hashes(t, n, cache) for t in batch[text_col].to_pylist()
        ]
        u = np.unique(np.concatenate(parts)) if parts else np.empty(0, np.uint64)
        return pa.table({"h": pa.array(u, pa.uint64())})

    parts = [
        b["h"].to_numpy(zero_copy_only=False)
        for b in bench_ds.select_columns([text_col]).map_batches(
            partial, batch_format="pyarrow"
        ).iter_batches(batch_format="pyarrow")
    ]
    if not parts:
        return np.empty(0, dtype=np.uint64)
    return np.unique(np.concatenate(parts).astype(np.uint64))


class _ContamCheck:
    """Actor-pool stage: deserialize the broadcast hash array once per actor
    (object-store get in ``__init__``), probe per batch with searchsorted."""

    def __init__(self, bench_ref, n: int, id_col: str, text_col: str):
        import ray

        self.bench = (
            ray.get(bench_ref) if not isinstance(bench_ref, np.ndarray) else bench_ref
        )
        self.n = n
        self.id_col = id_col
        self.text_col = text_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        cache: dict = {}
        texts = batch[self.text_col].to_pylist()
        n_grams = np.zeros(len(texts), dtype=np.int64)
        n_hits = np.zeros(len(texts), dtype=np.int64)
        for i, t in enumerate(texts):
            g = _doc_gram_hashes(t, self.n, cache)
            n_grams[i] = len(g)
            if len(g) and len(self.bench):
                idx = np.searchsorted(self.bench, g)
                idx[idx == len(self.bench)] = 0
                n_hits[i] = int(np.count_nonzero(self.bench[idx] == g))
        return pa.table(
            {
                self.id_col: batch[self.id_col],
                "n_grams": pa.array(n_grams),
                "n_hits": pa.array(n_hits),
                "contaminated": pa.array(n_hits > 0),
            }
        )


def decontaminate(
    corpus_ds,
    bench,
    n: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    concurrency: int = 4,
):
    """Per-corpus-doc contamination report against a benchmark n-gram set.

    ``bench`` is a Dataset (its n-gram hashes are computed and broadcast) or
    a pre-computed sorted uint64 array from :func:`benchmark_ngram_hashes`
    (reuse it across corpus shards / reruns). Returns a Dataset with
    ``(id_col, n_grams, n_hits, contaminated)`` — ``n_grams`` / ``n_hits``
    are DISTINCT totals so thresholded drop policies (e.g. "drop if > 10 %
    of grams are contaminated") are stable under within-doc repetition.
    """
    import ray

    hashes = bench if isinstance(bench, np.ndarray) else benchmark_ngram_hashes(
        bench, n=n, text_col=text_col
    )
    ref = ray.put(np.ascontiguousarray(hashes, dtype=np.uint64))
    return corpus_ds.select_columns([id_col, text_col]).map_batches(
        _ContamCheck,
        fn_constructor_args=(ref, n, id_col, text_col),
        batch_format="pyarrow",
        # autoscaling pool (min 1): a fixed pool sized at the CPU count would
        # reserve every core and starve the upstream read tasks (deadlock on
        # small clusters / the 4-cpu test session)
        concurrency=(1, concurrency),
    )


def benchmark_gram_owners(
    bench_ds, n: int = 5, id_col: str = "doc_id", text_col: str = "text"
):
    """Inverted benchmark gram index for :func:`contamination_report`:
    (sorted unique gram hashes H, CSR offsets, flat dense owner codes,
    code → bench id array). One gram can belong to several benchmark
    items. Driver memory is bounded by the benchmark's (item,
    distinct-gram) pair count — the same benchmark-≪-corpus assumption as
    :func:`benchmark_ngram_hashes`; gram-less items still appear (zero
    rows in the report)."""

    def partial(batch: pa.Table) -> pa.Table:
        cache: dict = {}
        out_b, out_h = [], []
        ids_np = np.asarray(batch[id_col].to_pylist(), dtype=np.int64)
        for bid, t in zip(ids_np, batch[text_col].to_pylist()):
            g = _doc_gram_hashes(t, n, cache)
            out_b.append(np.full(len(g), bid, dtype=np.int64))
            out_h.append(g)
        nb = np.concatenate(out_b) if out_b else np.empty(0, np.int64)
        nh = np.concatenate(out_h) if out_h else np.empty(0, np.uint64)
        return pa.table(
            {
                "bid": pa.array(np.concatenate([nb, ids_np])),
                "h": pa.array(
                    np.concatenate([nh, np.zeros(len(ids_np), np.uint64)]),
                    pa.uint64(),
                ),
                "is_gram": pa.array(
                    np.concatenate(
                        [np.ones(len(nb), bool), np.zeros(len(ids_np), bool)]
                    )
                ),
            }
        )

    bids, hs, universe = [], [], []
    for b in (
        bench_ds.select_columns([id_col, text_col])
        .map_batches(partial, batch_format="pyarrow")
        .iter_batches(batch_format="pyarrow")
    ):
        m = b["is_gram"].to_numpy(zero_copy_only=False)
        bids.append(b["bid"].to_numpy(zero_copy_only=False)[m])
        hs.append(b["h"].to_numpy(zero_copy_only=False)[m])
        universe.append(b["bid"].to_numpy(zero_copy_only=False)[~m])

    all_bids = np.unique(
        np.concatenate(universe) if universe else np.empty(0, np.int64)
    )
    code_of = {int(v): i for i, v in enumerate(all_bids)}
    if bids and sum(len(x) for x in bids):
        bid_arr = np.concatenate(bids)
        h_arr = np.concatenate(hs).astype(np.uint64)
        codes = np.asarray([code_of[int(v)] for v in bid_arr], dtype=np.int64)
        # distinct (gram, owner) pairs, grouped by gram → CSR
        order = np.lexsort((codes, h_arr))
        h_s, c_s = h_arr[order], codes[order]
        dup = np.zeros(len(h_s), dtype=bool)
        dup[1:] = (h_s[1:] == h_s[:-1]) & (c_s[1:] == c_s[:-1])
        h_s, c_s = h_s[~dup], c_s[~dup]
        starts = np.flatnonzero(np.r_[True, h_s[1:] != h_s[:-1]])
        H = h_s[starts]
        offs = np.append(starts, len(h_s)).astype(np.int64)
    else:
        H = np.empty(0, np.uint64)
        offs = np.zeros(1, np.int64)
        c_s = np.empty(0, np.int64)
    return H, offs, c_s, all_bids


class _ContamReport:
    """Actor-pool stage: per batch, accumulate per-benchmark-item distinct
    contaminating-doc and (doc, gram)-hit counts via bincount over the
    broadcast CSR gram→owners index. Each corpus doc lives in exactly one
    batch, so per-batch partial counts are disjoint and exactly summable
    downstream."""

    def __init__(self, payload_ref, n: int, text_col: str, num_slices: int):
        import ray

        self.H, self.offs, self.codes, self.all_bids = ray.get(payload_ref)
        self.n = n
        self.text_col = text_col
        self.num_slices = num_slices

    def __call__(self, batch: pa.Table) -> pa.Table:
        cache: dict = {}
        nb = len(self.all_bids)
        docs_vec = np.zeros(nb, dtype=np.int64)
        hits_vec = np.zeros(nb, dtype=np.int64)
        if len(self.H):
            for t in batch[self.text_col].to_pylist():
                g = _doc_gram_hashes(t, self.n, cache)
                if not len(g):
                    continue
                idx = np.searchsorted(self.H, g)
                idx[idx == len(self.H)] = 0
                idx = idx[self.H[idx] == g]
                if not len(idx):
                    continue
                owners = np.concatenate(
                    [self.codes[self.offs[i] : self.offs[i + 1]] for i in idx]
                )
                np.add.at(hits_vec, owners, 1)
                docs_vec[np.unique(owners)] += 1
        nz = np.flatnonzero(docs_vec)
        return pa.table(
            {
                "code": pa.array(nz.astype(np.int64)),
                "n_docs": pa.array(docs_vec[nz]),
                "n_gram_hits": pa.array(hits_vec[nz]),
                "slice": pa.array((nz % self.num_slices).astype(np.int32)),
            }
        )


def contamination_report(
    corpus_ds,
    bench_ds,
    n: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    concurrency: int = 4,
) -> pa.Table:
    """Per-BENCHMARK-item leak audit — the inverse view of
    :func:`decontaminate` (which reports per corpus doc): for every
    benchmark item, how many corpus documents share at least one word
    n-gram with it (``n_docs``) and how many distinct (corpus doc, gram)
    pairs hit it (``n_gram_hits``). Answers the dataset-release question
    "which eval items leaked, and how badly" without shuffling the corpus:
    the benchmark's gram→owners CSR index is broadcast once, the corpus
    streams through an actor pool, and partials meet in one coarse
    code-slice groupby (vectorized in-slice bincount — never one Ray group
    per benchmark item). The result is benchmark-sized → returned as a
    driver pa.Table sorted by bench id, zero rows included.

    Corpus rows are assumed to be distinct documents (the usual one-row-
    per-doc corpus layout): counts are per ROW, so a corpus where the same
    document id spans several rows overcounts — exact-dedup upstream first
    if ids can repeat. ``id_col`` names the BENCHMARK id column."""
    import ray

    num_slices = dataflow.num_slices()
    H, offs, codes, all_bids = benchmark_gram_owners(
        bench_ds, n=n, id_col=id_col, text_col=text_col
    )
    payload = ray.put((H, offs, codes, all_bids))

    def slice_sum(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return pa.table(
                {
                    "code": pa.array([], pa.int64()),
                    "n_docs": pa.array([], pa.int64()),
                    "n_gram_hits": pa.array([], pa.int64()),
                }
            )
        c = group["code"].to_numpy(zero_copy_only=False)
        u, inv = np.unique(c, return_inverse=True)
        nd = np.bincount(inv, weights=group["n_docs"].to_numpy(zero_copy_only=False))
        nh = np.bincount(
            inv, weights=group["n_gram_hits"].to_numpy(zero_copy_only=False)
        )
        return pa.table(
            {
                "code": pa.array(u.astype(np.int64)),
                "n_docs": pa.array(nd.astype(np.int64)),
                "n_gram_hits": pa.array(nh.astype(np.int64)),
            }
        )

    rows = (
        corpus_ds.select_columns([text_col])
        .map_batches(
            _ContamReport,
            fn_constructor_args=(payload, n, text_col, num_slices),
            batch_format="pyarrow",
            concurrency=(1, concurrency),
        )
        .groupby("slice")
        .map_groups(slice_sum, batch_format="pyarrow")
        .take_all()
    )
    docs_vec = np.zeros(len(all_bids), dtype=np.int64)
    hits_vec = np.zeros(len(all_bids), dtype=np.int64)
    for r in rows:
        docs_vec[r["code"]] = r["n_docs"]
        hits_vec[r["code"]] = r["n_gram_hits"]
    return pa.table(
        {
            "bench_id": pa.array(all_bids),
            "n_docs": pa.array(docs_vec),
            "n_gram_hits": pa.array(hits_vec),
        }
    )

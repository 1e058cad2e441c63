"""Deterministic sampling operators.

Web-scale pipelines sample with a *content-derived* hash, not an RNG: the
same row is kept on every rerun (resumable jobs, reproducible ablations) and
no coordination or seed distribution is needed across a 256-node cluster.
Both operators here are pure row-local ``map_batches`` filters — zero
shuffle, zero driver state, trivially linear at 100 TB.

The hash is :func:`infidex_ray.ops.dedup._md5_u64` (lower 8 md5 bytes,
little-endian), bit-identical to DuckDB's ``md5_number_lower`` — so the SQL
oracle recomputes the exact keep/drop decision per row rather than checking
a distribution.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import dataflow
from .dedup import _md5_u64

# Modulus for the hash-bucket decision; 1e6 gives ppm-granular rates.
SAMPLE_MOD = 1_000_000


def _keep_mask(keys: list, lo_ppm: int, hi_ppm: int, salt: str) -> list[bool]:
    """Hash-bucket window test [lo_ppm, hi_ppm) — the one place the keying
    scheme lives (sample_hash is the [0, rate) special case)."""
    return [
        lo_ppm <= _md5_u64(f"{salt}:{k}") % SAMPLE_MOD < hi_ppm for k in keys
    ]


def sample_hash(ds, rate: float, key_col: str = "doc_id", salt: str = "s0"):
    """Keep each row iff ``md5(salt:key) mod 1e6 < rate*1e6``.

    Deterministic Bernoulli(rate) sample keyed on ``key_col``; changing
    ``salt`` draws an independent sample (disjoint-ish splits for train /
    eval ablations come from disjoint rate windows — see
    :func:`sample_split`).
    """
    return sample_split(ds, 0.0, rate, key_col=key_col, salt=salt)


def sample_split(ds, lo: float, hi: float, key_col: str = "doc_id", salt: str = "s0"):
    """Keep rows whose hash bucket falls in [lo, hi) — non-overlapping
    windows give exactly disjoint train/val/test splits of one corpus."""
    lo_ppm, hi_ppm = int(round(lo * SAMPLE_MOD)), int(round(hi * SAMPLE_MOD))

    def flt(batch: pa.Table) -> pa.Table:
        mask = _keep_mask(batch[key_col].to_pylist(), lo_ppm, hi_ppm, salt)
        return batch.filter(pa.array(mask, pa.bool_()))

    return ds.map_batches(flt, batch_format="pyarrow")


def _group_topk_table(
    tbl: "pa.Table", group_col: str, score_col: str, id_col: str, k: int
) -> "pa.Table":
    """Vectorized per-group top-k of one table under the total order
    (score desc, id asc): lexsort, detect group changes, rank by cumulative
    position within group, filter rank < k."""
    import numpy as np

    if len(tbl) == 0:
        return tbl
    g = tbl[group_col].combine_chunks()
    # dictionary-encode group values so lexsort works for string groups
    # (combine_chunks on a ChunkedArray yields a plain DictionaryArray)
    enc = g.dictionary_encode()
    if isinstance(enc, pa.ChunkedArray):
        enc = enc.combine_chunks()
    codes = enc.indices.to_numpy(zero_copy_only=False)
    score = tbl[score_col].combine_chunks().to_numpy(zero_copy_only=False)
    ids = tbl[id_col].combine_chunks().to_numpy(zero_copy_only=False)
    order = np.lexsort((ids, -score, codes))
    codes_s = codes[order]
    new_grp = np.empty(len(order), dtype=bool)
    new_grp[0] = True
    np.not_equal(codes_s[1:], codes_s[:-1], out=new_grp[1:])
    # rank within group = position since last group start
    pos = np.arange(len(order))
    start = np.maximum.accumulate(np.where(new_grp, pos, 0))
    rank = pos - start
    keep = order[rank < k]
    out = tbl.take(pa.array(np.sort(keep)))
    return out


def top_k_per_group(
    ds, group_col: str, score_col: str, id_col: str, k: int
):
    """Keep the top-``k`` rows per group by ``score_col`` (descending,
    ties broken by ``id_col`` ascending) and emit each row's 1-based
    ``rank`` — the per-domain quality-selection pattern of crawl pipelines
    ("best N pages per site").

    Two-phase: every input block first reduces to its own per-group top-k
    (the union of per-block top-k under a total order contains the global
    top-k), so the shuffle carries at most k rows per group per block
    instead of the whole corpus — keyed by a coarse md5 SLICE of the group
    (a group's partials land in one slice; never one Ray group per group
    key, which pays per group on high-cardinality domains). Each slice
    re-ranks ALL its groups with one lexsort. A group's k rows must fit in
    one worker — true by construction since k is small.
    """
    add_slice = dataflow.add_slice(group_col, dataflow.num_slices())

    def partial(batch: pa.Table) -> pa.Table:
        return add_slice(_group_topk_table(batch, group_col, score_col, id_col, k))

    def final(group: pa.Table) -> pa.Table:
        import numpy as np

        from .windows import _sorted_key_ranks

        group = group.drop_columns(["slice"])
        top = _group_topk_table(group, group_col, score_col, id_col, k)
        if top.num_rows == 0:
            return top.append_column("rank", pa.array([], pa.int64()))
        kr = _sorted_key_ranks(top[group_col])
        score = top[score_col].combine_chunks().to_numpy(zero_copy_only=False)
        ids = top[id_col].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -score, kr))
        kr = kr[order]
        top = top.take(pa.array(order))
        new = np.empty(len(kr), dtype=bool)
        new[0] = True
        new[1:] = kr[1:] != kr[:-1]
        seg = np.cumsum(new) - 1
        rank = (
            np.arange(len(kr), dtype=np.int64) - np.flatnonzero(new)[seg] + 1
        )
        return top.append_column("rank", pa.array(rank))

    return (
        ds.select_columns(list(dict.fromkeys([group_col, score_col, id_col])))
        .map_batches(partial, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(final, batch_format="pyarrow")
    )


def stratified_sample(
    ds,
    rates: dict,
    strata_col: str,
    key_col: str = "doc_id",
    default_rate: float = 0.0,
    salt: str = "s0",
):
    """Per-stratum deterministic Bernoulli sample: keep a row iff its
    md5 bucket < rates[stratum] (``default_rate`` for unlisted strata).

    The language-rebalancing primitive (downsample English, keep all of the
    tail): still a pure row-local filter — the ``rates`` dict is tiny and
    ships inside the task closure, so there is no shuffle and no driver
    state, same as :func:`sample_hash`."""
    ppm = {k: int(round(v * SAMPLE_MOD)) for k, v in rates.items()}
    dflt = int(round(default_rate * SAMPLE_MOD))

    def flt(batch: pa.Table) -> pa.Table:
        keys = batch[key_col].to_pylist()
        strata = batch[strata_col].to_pylist()
        mask = [
            _md5_u64(f"{salt}:{k}") % SAMPLE_MOD < ppm.get(s, dflt)
            for k, s in zip(keys, strata)
        ]
        return batch.filter(pa.array(mask, pa.bool_()))

    return ds.map_batches(flt, batch_format="pyarrow")


def temperature_mix(
    ds,
    strata_col: str,
    alpha: float = 0.5,
    key_col: str = "doc_id",
    salt: str = "temp",
):
    """Temperature-based stratum rebalancing (the multilingual-pretraining
    sampler of mBERT / XLM-R / mT5): resample so stratum mass follows
    ``p_i^alpha`` instead of the raw ``p_i``, flattening head strata while
    keeping the tail. ``alpha=1`` is a no-op, ``alpha=0`` is uniform-over-
    strata; the per-row keep rate reduces to ``(n_min / n_i)**(1 - alpha)``
    (the largest stratum is downsampled hardest, the smallest kept whole —
    corpus size N cancels, so only the tiny per-stratum count table is
    needed).

    Two passes, both scale-safe: a stratum ``groupby().count()`` (rows out =
    number of strata) whose result is collected driver-side ONLY because it
    is strata-sized, then the same row-local deterministic md5 filter as
    :func:`stratified_sample`. ``alpha=0.5`` computes the rate as
    ``sqrt(n_min / n_i)`` — IEEE-correctly-rounded division + sqrt, so a SQL
    oracle reproduces the exact ppm threshold bit-for-bit; other alphas go
    through ``pow`` (documented cross-engine risk of 1-ulp divergence at a
    ppm boundary, fine for production, avoided in the contract entry).
    """
    import math

    counts = ds.groupby(strata_col).count()
    rows = counts.take_all()  # strata-sized (dozens of rows), not corpus-sized
    ccol = "count()" if rows and "count()" in rows[0] else "count"
    n_by = {r[strata_col]: int(r[ccol]) for r in rows}
    n_min = min(n_by.values()) if n_by else 0
    rates = {}
    for s, n in n_by.items():
        if alpha == 0.5:
            rates[s] = math.sqrt(n_min / n)
        else:
            rates[s] = (n_min / n) ** (1.0 - alpha)
    ppm = {s: int(math.floor(r * SAMPLE_MOD)) for s, r in rates.items()}

    def flt(batch: pa.Table) -> pa.Table:
        keys = batch[key_col].to_pylist()
        strata = batch[strata_col].to_pylist()
        mask = [
            _md5_u64(f"{salt}:{k}") % SAMPLE_MOD < ppm.get(s, 0)
            for k, s in zip(keys, strata)
        ]
        return batch.filter(pa.array(mask, pa.bool_()))

    return ds.map_batches(flt, batch_format="pyarrow")


def weighted_sample(
    ds,
    weight_col: str,
    k: int,
    key_col: str = "doc_id",
    salt: str = "ws",
):
    """Deterministic weighted top-``k`` sample (integer weights): each row
    makes ``w`` independent md5 draws ``md5(salt:key:j), j < w`` and
    competes with its MINIMUM draw; the global ``k`` smallest minima win.
    P(rank-1 = row i) is exactly ``w_i / Σw`` (the overall minimum lands
    uniformly on one of the Σw replicas), and subsequent ranks follow the
    replicated bottom-k scheme — a weighted without-replacement sample that
    is integer-exact in any engine (no ``ln``/``pow``, so no cross-engine
    libm divergence; DuckDB replays it with ``generate_series`` +
    ``md5_number_lower`` + ``min``).

    Scale: the replicated draws never leave their batch (a per-batch
    ``minimum.reduceat`` collapses them), each block then reduces to its own
    ``k`` best rows, and only ``k × n_blocks`` tiny rows reach the final
    sort+limit — no corpus shuffle. Weights must be small non-negative
    integers (replication factor per row); ``w == 0`` rows never win.
    """
    import numpy as np

    def partial(batch: pa.Table) -> pa.Table:
        keys = batch[key_col].to_pylist()
        w = np.asarray(batch[weight_col].to_pylist(), dtype=np.int64)
        w = np.maximum(w, 0)
        if len(keys) == 0 or int(w.sum()) == 0:
            return pa.table(
                {
                    key_col: pa.array([], batch[key_col].type),
                    weight_col: pa.array([], pa.int64()),
                    "draw": pa.array([], pa.uint64()),
                }
            )
        reps = np.repeat(np.arange(len(keys), dtype=np.int64), w)
        j = np.arange(len(reps), dtype=np.int64) - np.repeat(
            np.cumsum(w) - w, w
        )
        draws = np.fromiter(
            (
                _md5_u64(f"{salt}:{keys[i]}:{jj}")
                for i, jj in zip(reps, j)
            ),
            dtype=np.uint64,
            count=len(reps),
        )
        nz = w > 0
        offs = (np.cumsum(w) - w)[nz]
        mins = np.minimum.reduceat(draws, offs)
        ids = np.arange(len(keys), dtype=np.int64)[nz]
        # per-block partial top-k: only the k best rows leave this task
        order = np.argsort(mins, kind="stable")[:k]
        keep = ids[order]
        tbl = pa.table(
            {
                key_col: pa.array([keys[i] for i in keep], batch[key_col].type),
                weight_col: pa.array(w[keep].astype(np.int64)),
                "draw": pa.array(mins[order], pa.uint64()),
            }
        )
        return tbl

    top = (
        ds.select_columns(list(dict.fromkeys([key_col, weight_col])))
        .map_batches(partial, batch_format="pyarrow")
        .sort("draw")
        .limit(k)
        .repartition(1)
    )

    def rank(batch: pa.Table) -> pa.Table:
        import numpy as np

        d = batch["draw"].to_numpy(zero_copy_only=False)
        keys = batch[key_col].to_numpy(zero_copy_only=False)
        order = np.lexsort((keys, d))
        batch = batch.take(pa.array(order))
        n = len(batch)
        return pa.table(
            {
                "rank": pa.array(np.arange(1, n + 1, dtype=np.int64)),
                key_col: batch[key_col],
                weight_col: batch[weight_col],
                # emit mod 1e15 so both engines land in signed-64 range
                "draw_mod": pa.array(
                    (batch["draw"].to_numpy(zero_copy_only=False) % 10**15).astype(
                        np.int64
                    )
                ),
            }
        )

    return top.map_batches(rank, batch_format="pyarrow")


def mix_corpora(sources, key_col: str = "doc_id", salt: str = "mix"):
    """Assemble a deterministic training mixture from several corpora:
    ``sources`` is a list of ``(name, ds, rate)`` — each corpus contributes a
    hash-keyed Bernoulli(rate) sample tagged with a ``mix_source`` column,
    and the tagged streams are unioned (schemas must already agree).

    This is the data-mixing step of a pretraining pipeline (N× web, 1×
    books, 2× code …) made rerun-stable: the keep decision is
    ``md5(salt:name:key)``, so re-running the job — or running it shard by
    shard on a 256-node cluster — reproduces the same mixture with zero
    coordination, and upweighting one source never reshuffles another
    (per-source salts are independent). Pure map_batches + union: no
    shuffle, no driver state.
    """

    tagged = []
    for name, ds, rate in sources:
        part = sample_hash(ds, rate, key_col=key_col, salt=f"{salt}:{name}")

        def tag(batch: pa.Table, _n=name) -> pa.Table:
            return batch.append_column(
                "mix_source", pa.array([_n] * len(batch), pa.string())
            )

        tagged.append(part.map_batches(tag, batch_format="pyarrow"))
    out = tagged[0]
    for t in tagged[1:]:
        out = out.union(t)
    return out


def budget_select(
    ds,
    budget: float,
    score_col: str,
    cost_col: str,
    id_col: str = "doc_id",
):
    """Token-budget corpus selection: order the corpus by ``score_col``
    descending (ties by ``id_col`` ascending) and keep the prefix whose
    cumulative ``cost_col`` stays ≤ ``budget`` — "take the best N tokens"
    of data-mixing recipes (DoReMi/DCLM-style: score every doc, spend a
    fixed token budget from the top). Emits ``(id, score, cost, cum)``
    where ``cum`` includes the row itself.

    Scale design: ONE global sort (the unavoidable all-to-all), then a
    distributed prefix scan — each sorted block reports its cost sum (an
    O(blocks) driver scalar), the driver cumsums the per-block offsets, and
    each block cuts itself independently with its start offset. No block
    ever sees another block's rows; the driver holds one number per block.
    Costs must be integers (exact cumulative sums — float costs would make
    the cut order-dependent)."""
    import ray

    cols = list(dict.fromkeys([id_col, score_col, cost_col]))
    refs, _sizes, _offsets = dataflow.sorted_blocks(
        ds, [score_col, id_col], columns=cols, descending=[True, False]
    )
    if not refs:  # empty corpus: keep the (id, score, cost, cum) shape
        sch = ds.select_columns(cols).schema().base_schema
        return dataflow.typed_empty(sch.append(pa.field("cum", pa.int64())))

    def cost_sum(t: pa.Table) -> int:
        return int(np.sum(t[cost_col].to_numpy(zero_copy_only=False).astype(np.int64)))

    sums = np.asarray(ray.get(dataflow.on_blocks(cost_sum, refs)), dtype=np.int64)

    def cut(t: pa.Table, start: int) -> pa.Table:
        cost = t[cost_col].to_numpy(zero_copy_only=False).astype(np.int64)
        cum = start + np.cumsum(cost, dtype=np.int64)
        keep = cum <= budget
        t = t.filter(pa.array(keep))
        return pa.table(
            {
                id_col: t[id_col],
                score_col: t[score_col],
                cost_col: t[cost_col],
                "cum": pa.array(cum[keep], pa.int64()),
            }
        )

    return ray.data.from_arrow_refs(
        dataflow.on_blocks(cut, refs, np.cumsum(sums) - sums)
    )


def quota_sample(ds, group_col: str, id_col: str, n: int, seed: int = 0):
    """Cap rows per group at ``n``, selected by deterministic md5 priority —
    the "at most N pages per domain" quota of crawl curation, reproducible
    on any cluster (same seed + ids → same survivors, like
    ``deterministic_shuffle``). Each row gets ``qkey =
    md5(f"{seed}:{id}") % 2**62`` and the ``n`` HIGHEST qkeys per group
    survive (ties impossible in practice; broken by ``id_col`` ascending
    like :func:`top_k_per_group`, whose per-block-partial + group-slice
    machinery this reuses — the shuffle carries ≤ n rows per group per
    block, never the whole corpus).

    Output: ``(group_col, qkey, id_col, rank)`` with rank 1..n per group."""

    def key(batch: pa.Table) -> pa.Table:
        qk = np.asarray(
            [
                _md5_u64(f"{seed}:{v}") % (1 << 62)
                for v in batch[id_col].to_pylist()
            ],
            dtype=np.int64,
        )
        return batch.append_column("qkey", pa.array(qk))

    keyed = ds.select_columns(
        list(dict.fromkeys([group_col, id_col]))
    ).map_batches(key, batch_format="pyarrow")
    return top_k_per_group(keyed, group_col, "qkey", id_col, n)

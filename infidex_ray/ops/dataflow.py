"""The dataflow kernel every op in ``ops/`` builds on: one slicing policy
and routing hash, one join guard, one sorted-block pass and one block task.

* :func:`num_slices` / :func:`slice_of` — ops never group by a raw key
  (Ray's aggregate pays per GROUP; a web-scale key domain hits the
  29M-key groupby cliff). They shuffle by a coarse slice of the key, so
  all rows of a key land in one group, and each group resolves all of its
  keys in one vectorized pass. The slice count is decided once per op
  call, on the driver; batch functions receive it.
* :func:`join` / :func:`uniform` — ``Dataset.join`` with the Ray 2.49
  workarounds: a version-gated partition cap for chained joins, the small
  or derived side(s) rewritten to one block schema (a corpus side
  streams), and a typed result when a side is empty.
* :func:`sorted_blocks` / :func:`on_blocks` — the distributed-prefix
  pattern: one global sort, per-block sizes and offsets as O(blocks)
  driver scalars, then each block finalizes itself in one task.
* :func:`typed_empty` — an empty Dataset that keeps its column types.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

# odd 64-bit mixing constants (splitmix64 finalizer multipliers — public)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def num_slices(mult: int = 4, floor: int = 16) -> int:
    """Coarse slice count for hash-slice groupbys, scaled to cluster CPUs.
    Ops that shuffle pair or content-hash streams (near-unique keys) use
    ``mult=8, floor=64``; the rest the default."""
    import ray

    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    return max(floor, cpus * mult)


def _bytes_hash(arr) -> np.ndarray:
    """One polynomial byte hash per string/binary value (uint64
    wraparound) via a single ``np.add.reduceat`` over the Arrow data
    buffer — no per-value Python hashing. Nulls hash like empty values."""
    n = len(arr)
    if n == 0:
        return np.zeros(0, dtype=np.uint64)
    binary = pa.types.is_binary(arr.type) or pa.types.is_large_binary(arr.type)
    a = arr.cast(pa.large_binary() if binary else pa.large_string())
    buf_off = np.frombuffer(a.buffers()[1], dtype=np.int64)[a.offset : a.offset + n + 1]
    starts = buf_off[:-1] - buf_off[0]
    lens = np.diff(buf_off)
    total = int(buf_off[-1] - buf_off[0])
    if total == 0:
        return np.zeros(n, dtype=np.uint64)
    data = np.frombuffer(a.buffers()[2], dtype=np.uint8)
    flat = data[buf_off[0] : buf_off[-1]].astype(np.uint64)
    rel = np.arange(total, dtype=np.int64) - np.repeat(starts, lens)
    with np.errstate(over="ignore"):
        pows = _MIX1 ** np.arange(int(lens.max()), dtype=np.uint64)
        contrib = flat * pows[rel]
        seg = np.minimum(starts, total - 1)  # trailing empties: clip,
        sums = np.add.reduceat(contrib, seg)  # then overwrite below
        sums[lens == 0] = np.uint64(0)
        return (sums * _MIX2) ^ (lens.astype(np.uint64) * _MIX1)


def _float_bits(x: np.ndarray) -> np.ndarray:
    """float64 bits with SQL equality: -0.0 == 0.0 and one NaN."""
    x = np.asarray(x, dtype=np.float64)
    x = np.where(np.isnan(x), np.nan, np.where(x == 0, 0.0, x))
    return x.view(np.uint64)


def _key_bits(col) -> np.ndarray:
    """uint64 per row: equal keys give equal values."""
    if isinstance(col, np.ndarray):
        if col.dtype.kind == "f":
            return _float_bits(col)
        if col.dtype.kind in "iub":
            return col.astype(np.int64).view(np.uint64)
        col = pa.array([str(v) for v in col], pa.string())
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    t = col.type
    if pa.types.is_dictionary(t):
        col = col.cast(t.value_type)
        t = col.type
    if (
        pa.types.is_string(t)
        or pa.types.is_large_string(t)
        or pa.types.is_binary(t)
        or pa.types.is_large_binary(t)
    ):
        return _bytes_hash(col)
    if pa.types.is_integer(t):
        raw = col.fill_null(0).to_numpy(zero_copy_only=False)
        return raw.astype(np.int64).view(np.uint64)
    if pa.types.is_floating(t):
        return _float_bits(col.to_numpy(zero_copy_only=False))
    if pa.types.is_boolean(t):
        return _key_bits(col.cast(pa.int8()))
    if pa.types.is_temporal(t):
        return _key_bits(col.cast(pa.int64() if t.bit_width == 64 else pa.int32()))
    return _bytes_hash(pa.array([str(v) for v in col.to_pylist()], pa.string()))


def _fmix(h: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer: every output bit depends on every input bit.
    Without it a product's low bits depend only on the key's low bits, so
    with a power-of-two slice count, strided ids (multiples of 16 or 64)
    would share a few slices."""
    h = (h ^ (h >> np.uint64(30))) * _MIX1
    h = (h ^ (h >> np.uint64(27))) * _MIX2
    return h ^ (h >> np.uint64(31))


def slice_of(n: int, *cols) -> np.ndarray:
    """int32 slice in ``[0, n)`` of each row's key — one column, or a
    tuple of columns such as an ``(id_a, id_b)`` pair. Columns may be
    Arrow arrays or numpy arrays. A pure function of the key value, so a
    key gets the same slice in every batch. Routing only: slice ids are
    not a cross-engine hash (``dedup._md5_u64`` is, for values an oracle
    recomputes)."""
    h = _key_bits(cols[0])
    with np.errstate(over="ignore"):
        for c in cols[1:]:
            h = _fmix(h) ^ _key_bits(c)
        return (_fmix(h) % np.uint64(n)).astype(np.int32)


def add_slice(key_cols, n: int):
    """map_batches fn appending ``slice = slice_of(n, *key_cols)``."""
    keys = [key_cols] if isinstance(key_cols, str) else list(key_cols)

    def fn(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "slice", pa.array(slice_of(n, *(batch[k] for k in keys)))
        )

    return fn


# --- joins ---------------------------------------------------------------


def _ray_chained_join_deadlock() -> bool:
    """True while the running Ray has the chained-``Dataset.join`` deadlock
    (probed empirically on 2.49: chained joins hang when num_partitions
    exceeds ~CPUs/2; tests/test_ops.py::test_chained_join_deadlock_probe
    reproduces the shape). Version-gated so the cap self-deletes on a fixed
    Ray — bump the tuple when a release is verified clean."""
    import ray

    try:
        v = tuple(int(x) for x in ray.__version__.split(".")[:2])
    except Exception:
        return True  # unknown version: assume affected
    return v <= (2, 49)


def join_partitions(requested: int | None = None, chained: bool = True) -> int:
    """Join partition count: `Dataset.join` spawns one aggregator actor per
    partition.

    * ``requested`` is honored (the corpus-scale escape hatch) — clamped to
      CPUs/2 only for ``chained`` joins on a deadlock-affected Ray
      (``_ray_chained_join_deadlock``).
    * The default scales with cluster CPUs — ``max(8, cpus/4)`` bounded by
      the CPUs/2 safety line: aggregator-actor startup dominates small and
      medium joins (A/B at sf0.1: 4 parts 7.7 s, 8 parts 8.4 s, 16 parts
      11.4 s), so small sessions stay at 8 while a 256-node cluster gets
      hundreds of partitions.
    """
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 4)) if ray.is_initialized() else 4
    safety = max(2, cpus // 2)
    if requested:
        if chained and _ray_chained_join_deadlock():
            return min(requested, safety)
        return requested
    return max(2, min(safety, max(8, cpus // 4)))


def uniform(ds, num_partitions: int):
    """``ds`` materialized with one block schema. Sparse groupbys and
    joins upstream leave schema-less empty blocks (MIXED block schemas),
    and a join's aggregator then fails pyarrow's FieldRef resolution; such
    a Dataset is rewritten by one ``repartition`` into at most one block
    per row, so no block is empty and a second call copies nothing. One
    without empty blocks is returned as it is (a metadata check). A side
    that several joins reuse is made uniform once, where it is built."""
    ds = ds.materialize()
    if all(m.num_rows for b in ds.iter_internal_ref_bundles() for _, m in b.blocks):
        return ds
    return ds.repartition(max(1, min(num_partitions, ds.count()))).materialize()


def _empty_table(ds) -> pa.Table | None:
    base = getattr(ds.schema(), "base_schema", None)
    return base.empty_table() if isinstance(base, pa.Schema) else None


def _keys_only(names, other: pa.Table | None, other_names) -> pa.Table:
    """Stand-in for a schema-less side (Ray 2.49 empty blocks): its key
    columns, typed like the other side's."""
    types = [
        other.schema.field(o).type if other is not None else pa.int64()
        for o in other_names
    ]
    return pa.schema(list(zip(names, types))).empty_table()


def join(
    left,
    right,
    how: str,
    on,
    num_partitions: int | None = None,
    *,
    right_on=None,
    chained: bool = True,
    stream: str | None = None,
    left_suffix: str | None = None,
    right_suffix: str | None = None,
):
    """``Dataset.join`` behind the Ray 2.49 guard.

    * The partition count is :func:`join_partitions` (``chained=False``
      for a join whose output feeds no further join).
    * Each side is counted and made :func:`uniform`, except the one named
      by ``stream`` (``"left"`` or ``"right"``): the corpus-sized side,
      which streams into the join as given — never materialized, copied
      or counted. A ``left_anti`` against an empty right returns the left
      side unchanged.
    * An empty side never reaches ``Dataset.join`` (it fails on it): the
      result is computed with pyarrow against the empty table, so it keeps
      the output column types."""
    keys = [on] if isinstance(on, str) else list(on)
    rkeys = keys if right_on is None else list(
        (right_on,) if isinstance(right_on, str) else right_on
    )
    n = join_partitions(num_partitions, chained)

    def counted(ds, side: str):
        if stream == side:
            return ds, 1  # row count unknown: assume rows
        ds = ds.materialize()
        return ds, ds.count()

    left, n_left = counted(left, "left")
    right, n_right = counted(right, "right")
    if n_left and n_right:
        if stream != "left":
            left = uniform(left, n)
        if stream != "right":
            right = uniform(right, n)
        return left.join(
            right, how, n, on=tuple(keys), right_on=tuple(rkeys),
            left_suffix=left_suffix, right_suffix=right_suffix,
        )
    if how == "left_anti" and n_left:
        return left
    rt = _empty_table(right)
    outer = bool(n_left) and how == "left_outer"
    # a streamed left's schema is read only when the result needs it
    lt = None if outer and rt is not None else _empty_table(left)
    if rt is None:
        rt = _keys_only(rkeys, lt, keys)
    if lt is None:
        lt = _keys_only(keys, rt, rkeys)
    arrow_how = how.replace("_", " ")

    def arrow_join(t: pa.Table) -> pa.Table:
        return t.join(
            rt, keys=keys, right_keys=rkeys, join_type=arrow_how,
            left_suffix=left_suffix, right_suffix=right_suffix,
        )

    if outer:
        return left.map_batches(arrow_join, batch_format="pyarrow")
    return typed_empty(arrow_join(lt).schema)


def typed_empty(schema):
    """Empty Dataset with ``schema`` (a ``pa.Schema``, a ``{name: type}``
    mapping or ``(name, type)`` pairs)."""
    import ray.data

    if not isinstance(schema, pa.Schema):
        schema = pa.schema(schema)
    return ray.data.from_arrow(schema.empty_table())


# --- sorted blocks ------------------------------------------------------------


def _run_on_block(fn, block, *args):
    return fn(block, *args)


@functools.cache
def _block_task():
    """The one block task, made once per process: every ``ray.remote``
    call registers one more task type."""
    import ray

    return ray.remote(_run_on_block)


def on_blocks(fn, refs, *args) -> list:
    """ObjectRefs of ``fn(block, *per_block_args)``, one task per block:
    each of ``args`` is a sequence aligned with ``refs``. ObjectRefs among
    the per-block args arrive resolved, as in any task call."""
    import ray

    task = _block_task()
    fn_ref = ray.put(fn)
    return [task.remote(fn_ref, r, *a) for r, *a in zip(refs, *args)]


def sorted_blocks(ds, by, columns=None, descending=False):
    """ONE global sort by ``by`` (optionally projected to ``columns``
    first), then ``(refs, sizes, offsets)`` over the non-empty sorted
    blocks: each block's row count and the row number its first row has
    in the sorted order. Ray 2.49's sort emits schema-less empty blocks;
    they are skipped."""
    import ray

    by = [by] if isinstance(by, str) else list(by)
    if columns is not None:
        ds = ds.select_columns(list(dict.fromkeys(columns)))
    refs = ds.sort(by, descending=descending).materialize().to_arrow_refs()
    ns = ray.get(on_blocks(len, refs))
    refs = [r for r, k in zip(refs, ns) if k > 0]
    sizes = np.asarray([k for k in ns if k > 0], dtype=np.int64)
    return refs, sizes, np.cumsum(sizes) - sizes

"""Global index stats on disk, and the df lookup over them. Every path
under ``<index>/stats/`` is built here:

* ``stats.json``: the manifest's ``stats`` (doc count, doc lengths);
* ``vocab/kind=term/`` (grams and long words) and ``vocab/kind=word/``:
  sorted ``(term, df)`` parquet parts. A Ray build writes range-partitioned
  parts, a local build or an INFDX2 import one ``base.parquet``, and each
  add appends ``delta-NNNN.parquet``, named after its segment. A lookup
  sums the dfs of every part whose key range covers a term, so an add never
  rewrites the base.

The manifest is the commit point: a ``delta-NNNN`` part counts only if the
manifest lists segment ``delta-NNNN`` (an add writes its parts first).
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa

KINDS = ("term", "word")
# merge_index sums the live delta parts (and an earlier such sum) into this
_MERGED = "merged.parquet"


def stats_path(index_dir: str, *parts: str) -> str:
    return os.path.join(index_dir, "stats", *parts)


def kind_dir(vocab_root: str, kind: str) -> str:
    return os.path.join(vocab_root, f"kind={kind}")


def df_table(col: str, keys, dfs) -> pa.Table:
    """A ``(col, df)`` stats table: large_string keys, int64 dfs."""
    schema = pa.schema([(col, pa.large_string()), ("df", pa.int64())])
    return pa.table({col: keys, "df": dfs}).cast(schema)


def sum_df(tables: list[pa.Table], col: str) -> pa.Table:
    """Σ df per key over ``(col, df)`` tables, sorted by key (Arrow sorts
    UTF-8 bytes, i.e. Python's code-point order)."""
    cat = pa.concat_tables(
        [df_table(col, [], []), *(df_table(col, t[col], t["df"]) for t in tables)]
    )
    agg = cat.group_by(col).aggregate([("df", "sum")])
    return df_table(col, agg[col], agg["df_sum"]).sort_by(col).combine_chunks()


def write_stats(index_dir: str, stats: dict) -> None:
    os.makedirs(stats_path(index_dir), exist_ok=True)
    with open(stats_path(index_dir, "stats.json"), "w") as f:
        json.dump(stats, f)


def new_vocab_dir(index_dir: str) -> str:
    """An empty temp dir to write a whole vocab tree into; ``install_vocab``
    swaps it in, so a failed write leaves the old stats intact."""
    tmp = stats_path(index_dir, "vocab.tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    return tmp


def install_vocab(index_dir: str, tmp: str) -> None:
    """Replace the index's vocab tree with ``tmp``'s; both kind dirs exist
    afterwards, also for an empty index."""
    for kind in KINDS:
        os.makedirs(kind_dir(tmp, kind), exist_ok=True)
    shutil.rmtree(stats_path(index_dir, "vocab"), ignore_errors=True)
    os.rename(tmp, stats_path(index_dir, "vocab"))


def write_vocab(index_dir: str, tables: dict[str, pa.Table]) -> None:
    """A local build's or an import's vocab: each kind's summed ``(term,
    df)`` table as its one part."""
    import pyarrow.parquet as pq

    tmp = new_vocab_dir(index_dir)
    for kind, table in tables.items():
        os.makedirs(kind_dir(tmp, kind))
        pq.write_table(table, os.path.join(kind_dir(tmp, kind), "base.parquet"))
    install_vocab(index_dir, tmp)


def append_part(index_dir: str, kind: str, segment: str, table: pa.Table):
    """An add's part: ``table``'s ``(key, df)`` rows sorted, written as
    ``<segment>.parquet``. Returns ``(path, table)`` for ``add_written``."""
    import pyarrow.parquet as pq

    table = df_table("term", table.column(0), table["df"]).sort_by("term")
    path = os.path.join(kind_dir(stats_path(index_dir, "vocab"), kind), f"{segment}.parquet")
    pq.write_table(table, path)
    return path, table


def copy_stats(index_dir: str, out_dir: str, manifest: dict) -> None:
    """``merge_index``'s stats: the base parts copied, the live delta parts
    and an earlier ``merged.parquet`` summed into a new one (the merged
    manifest lists no delta, and its own adds restart at ``delta-0000``)."""
    import pyarrow.parquet as pq

    live = {e["name"] for e in manifest["segments"]}
    tmp = new_vocab_dir(out_dir)
    for kind in KINDS:
        src, dst = kind_dir(stats_path(index_dir, "vocab"), kind), kind_dir(tmp, kind)
        os.makedirs(dst)
        folded = []
        for name in sorted(os.listdir(src)):
            if name != _MERGED and not name.startswith("delta-"):
                shutil.copy(os.path.join(src, name), dst)
            elif _counts(name, live):
                folded.append(pq.read_table(os.path.join(src, name)))
        if folded:
            pq.write_table(sum_df(folded, "term"), os.path.join(dst, _MERGED))
    install_vocab(out_dir, tmp)
    shutil.copy(stats_path(index_dir, "stats.json"), stats_path(out_dir, "stats.json"))


def _counts(name: str, live: set[str]) -> bool:
    """Whether part file ``name`` counts under a manifest listing ``live``."""
    return not name.startswith("delta-") or name.removesuffix(".parquet") in live


def open_lookup(index_dir: str, kind: str, manifest: dict | None = None) -> "VocabLookup":
    """The ``kind`` ("term" or "word") df lookup over the parts ``manifest``
    (default: the index's) commits. A missing kind dir raises
    FileNotFoundError rather than reading every df as 0."""
    if manifest is None:
        with open(os.path.join(index_dir, "manifest.json")) as f:
            manifest = json.load(f)
    d = kind_dir(stats_path(index_dir, "vocab"), kind)
    if not os.path.isdir(d):
        raise FileNotFoundError(f"no vocab stats at {d}")
    import pyarrow.parquet as pq

    live = {e["name"] for e in manifest["segments"]}
    parts = []
    for name in sorted(os.listdir(d)):
        if not name.endswith(".parquet") or not _counts(name, live):
            continue
        p = os.path.join(d, name)
        pf = pq.ParquetFile(p)
        md = pf.metadata
        if md.num_rows == 0:
            continue
        ci = pf.schema_arrow.names.index("term")
        stats = [md.row_group(rg).column(ci).statistics for rg in range(md.num_row_groups)]
        if all(st is not None and st.has_min_max for st in stats):
            parts.append((min(st.min for st in stats), max(st.max for st in stats), p))
        else:  # stats stripped → conservative full range
            parts.append(("", "\U0010ffff" * 4, p))
    return VocabLookup(parts)


class VocabLookup:
    """Vocab df lookup over sorted parquet parts, so the driver never holds
    the vocabulary. Part key ranges come from parquet footer statistics; a
    probe opens only the parts whose [min, max] covers the term and SUMS
    their dfs (overlapping parts are how adds append delta stats). Per-part
    arrays load lazily and stay cached — actor-local state touching
    O(parts probed)."""

    def __init__(self, parts: list[tuple[str, str, str]]):
        # parts: (min_term, max_term, path), sorted by min_term
        self.parts = sorted(parts)
        self._cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self._merged: tuple[np.ndarray, np.ndarray] | None = None

    def add_written(self, path: str, table: pa.Table) -> None:
        """Take in ``table``, a sorted part just written at ``path``: its key
        range is its first and last key, and its arrays are already parsed
        (a delta append only adds parts, never rewrites one)."""
        if len(table) == 0:
            return
        terms, _ = self._cache[path] = (table["term"].to_numpy(), table["df"].to_numpy())
        self.parts.append((terms[0], terms[-1], path))
        self.parts.sort()
        self._merged = None

    def _load(self, path: str) -> tuple[np.ndarray, np.ndarray]:
        hit = self._cache.get(path)
        if hit is None:
            import pyarrow.parquet as pq

            t = pq.read_table(path)
            hit = self._cache[path] = (t["term"].to_numpy(), t["df"].to_numpy())
        return hit

    def __call__(self, term: str) -> int:
        total = 0
        for mn, mx, path in self.parts:
            if mn <= term <= mx:
                terms, dfs = self._load(path)
                i = np.searchsorted(terms, term)
                if i < len(terms) and terms[i] == term:
                    total += int(dfs[i])
        return total

    def vocab_size(self) -> int:
        """Distinct-term count. When part key ranges are pairwise disjoint
        (the base distributed build always writes range-partitioned parts),
        this is the SUM of parquet-footer row counts — zero data read. Only
        overlapping parts (delta appends) fall back to the merged view."""
        import pyarrow.parquet as pq

        if all(a[1] < b[0] for a, b in zip(self.parts, self.parts[1:])):
            return sum(pq.ParquetFile(p).metadata.num_rows for _, _, p in self.parts)
        return len(self.terms)

    def _merge_all(self) -> tuple[np.ndarray, np.ndarray]:
        """Full materialized view (duplicate keys summed, sorted) — only for
        small-scale driver conveniences like the contract's term_df dump;
        query paths never call this."""
        if self._merged is None:
            t = sum_df([df_table("term", *self._load(p)) for _, _, p in self.parts], "term")
            self._merged = (t["term"].to_numpy(), t["df"].to_numpy())
        return self._merged

    @property
    def terms(self) -> np.ndarray:
        return self._merge_all()[0]

    @property
    def dfs(self) -> np.ndarray:
        return self._merge_all()[1]

"""URL parsing / normalization for web-crawl corpora.

Crawl pipelines key nearly everything on the URL: per-domain caps and
quality priors, dedup of ?utm-tracked variants, robots/blocklist joins. This
op splits a URL column into (scheme, host, path, query) plus a normalized
registered host (lowercased, leading ``www.`` stripped) — the standard
domain key.

Scale design: one stateless ``map_batches`` built from Arrow RE2 kernels
(``extract_regex`` with named groups + ``ascii_lower`` /
``replace_substring_regex``) — fully vectorized, no Python per row, and
engine-identical to a DuckDB ``regexp_extract`` oracle (both RE2). No
shuffle; downstream per-domain ops groupby the ``domain`` column this op
emits.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from . import dataflow

__all__ = ["URL_PATTERN", "url_parse", "domain_stats", "filter_domains", "politeness_order"]

# scheme optional; host = up to the first /?#; path = up to ?#; query after ?
URL_PATTERN = (
    r"^(?:(?P<scheme>[A-Za-z][A-Za-z0-9+.-]*)://)?"
    r"(?P<host>[^/?#]*)"
    r"(?P<path>[^?#]*)"
    r"(?:\?(?P<query>[^#]*))?"
)


def url_parse_batch(
    batch: pa.Table, url_col: str = "url", keep_cols: list[str] | None = None
) -> pa.Table:
    col = batch[url_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    urls = pc.coalesce(col, pa.scalar("", pa.string()))
    parts = pc.extract_regex(urls, URL_PATTERN)
    # extract_regex yields null structs only if the whole pattern misses —
    # everything is optional here, so it always matches; unmatched groups
    # come back as empty strings (scheme/query: '' means absent)
    scheme = pc.struct_field(parts, "scheme")
    host = pc.struct_field(parts, "host")
    path = pc.struct_field(parts, "path")
    query = pc.struct_field(parts, "query")
    domain = pc.replace_substring_regex(
        pc.utf8_lower(host), r"^www\.", "", max_replacements=1
    )
    keep = (
        [c for c in batch.column_names if c != url_col]
        if keep_cols is None
        else list(keep_cols)
    )
    cols = {c: batch[c] for c in keep}
    cols.update(
        {"scheme": scheme, "host": host, "domain": domain, "path": path,
         "url_query": query}
    )
    return pa.table(cols)


def url_parse(ds, url_col: str = "url", keep_cols: list[str] | None = None):
    """Dataset wrapper: splits ``url_col`` into scheme/host/domain/path/
    url_query columns (url_col dropped, other columns pass through)."""
    import functools

    return ds.map_batches(
        functools.partial(url_parse_batch, url_col=url_col, keep_cols=keep_cols),
        batch_format="pyarrow",
    )


def domain_stats(ds, domain_col: str = "domain", size_col: str | None = None):
    """Per-domain corpus statistics — the input to per-domain caps and
    quality priors in crawl curation (e.g. RefinedWeb / C4 keep at most N
    pages per site).

    Scale design: a per-batch combiner pre-aggregates to ≤ 1 row per domain
    per block BEFORE the groupby, so the exchange moves |domains| rows, not
    |docs| (the skew answer for megasites). Returns (domain, n_docs[,
    total_<size_col>])."""
    def combine(batch: pa.Table) -> pa.Table:
        gb = batch.group_by([domain_col])
        if size_col is None:
            agg = gb.aggregate([(domain_col, "count")])
            return agg.rename_columns([domain_col, "n_docs"])
        agg = gb.aggregate([(domain_col, "count"), (size_col, "sum")])
        return agg.rename_columns([domain_col, "n_docs", f"total_{size_col}"])

    partial = ds.map_batches(combine, batch_format="pyarrow")
    if size_col is None:
        out = partial.groupby(domain_col).sum("n_docs")
        return out.map_batches(
            lambda b: b.rename_columns([domain_col, "n_docs"]),
            batch_format="pyarrow",
        )
    out = partial.groupby(domain_col).sum(["n_docs", f"total_{size_col}"])
    return out.map_batches(
        lambda b: b.rename_columns([domain_col, "n_docs", f"total_{size_col}"]),
        batch_format="pyarrow",
    )


def filter_domains(
    ds, blocklist, domain_col: str = "domain", keep_listed: bool = False
):
    """Drop (or keep, ``keep_listed=True``) rows whose domain is in
    ``blocklist``. The list is broadcast ONCE via ``ray.put`` and resolved
    inside each task — never re-pickled per batch and never a shuffle join
    (blocklists are small-side by construction)."""
    import pyarrow.compute as _pc
    import ray as _ray

    block_ref = _ray.put(sorted({d.lower() for d in blocklist}))

    def apply(batch: pa.Table) -> pa.Table:
        block = _ray.get(block_ref)
        mask = _pc.is_in(
            batch[domain_col], value_set=pa.array(block, pa.string())
        )
        if not keep_listed:
            mask = _pc.invert(_pc.fill_null(mask, False))
        else:
            mask = _pc.fill_null(mask, False)
        return batch.filter(mask)

    return ds.map_batches(apply, batch_format="pyarrow")


# --- URL canonicalization ------------------------------------------------------

# tracking parameters every crawl pipeline strips before URL dedup; the
# leading separator is captured and kept so "?utm=x&a=1" → "?a=1" (one RE2
# GlobalReplace pass — adjacent tracking params need the pass the oracle
# also runs once, so engine and SQL stay bit-identical by construction)
_TRACKING_PARAM_RE = (
    r"(?P<sep>[?&])(?:utm_[a-z]+|gclid|fbclid|ref|mc_cid|mc_eid)=[^&]*&?"
)


def canonical_url(ds, url_col: str = "url", out_col: str = "canonical_url"):
    """Canonical form of a URL column for URL-level dedup: lowercase scheme
    and host, strip the fragment, drop tracking query parameters
    (``utm_*``, ``gclid``, ``fbclid``, ``ref``, ``mc_cid``/``mc_eid``),
    drop an emptied ``?``/``&`` and a single trailing ``/`` (any final slash
    not part of ``//`` — ``host.com/`` ≡ ``host.com``).

    One stateless ``map_batches`` of Arrow RE2 kernels — no Python per row,
    no shuffle, and each rewrite step is expressible as the same
    ``regexp_replace`` chain in the DuckDB oracle."""

    def canon(batch: pa.Table) -> pa.Table:
        u = batch[url_col]
        if isinstance(u, pa.ChunkedArray):
            u = u.combine_chunks()
        u = pc.replace_substring_regex(u, pattern=r"#.*$", replacement="")
        # lowercase scheme://host prefix only (path/query are case-significant)
        m = pc.extract_regex(
            u, pattern=r"^(?P<pre>(?:[A-Za-z][A-Za-z0-9+.-]*://)?[^/?#]*)(?P<rest>.*)$"
        )
        pre = pc.ascii_lower(pc.struct_field(m, "pre"))
        rest = pc.struct_field(m, "rest")
        u = pc.binary_join_element_wise(pre, rest, "")
        # strip tracking params (separator preserved), tidy a dangling ?/&
        u = pc.replace_substring_regex(
            u, pattern=_TRACKING_PARAM_RE, replacement="\\1"
        )
        u = pc.replace_substring_regex(u, pattern=r"[?&]$", replacement="")
        # single trailing slash on a non-root path
        u = pc.replace_substring_regex(u, pattern=r"(?P<keep>[^/])/$", replacement="\\1")
        return batch.append_column(out_col, u)

    return ds.map_batches(canon, batch_format="pyarrow")


def politeness_order(ds, domain_col: str = "domain", url_col: str = "url"):
    """Politeness-aware crawl ordering: interleave domains so same-domain
    URLs are maximally spaced — the frontier scheduling rule that keeps a
    distributed fetcher from hammering one host while others idle. Order =
    (within-domain rank, domain, url): every domain's first URL crawls
    before any domain's second, round-robin by construction.

    Mechanics: one md5 domain-slice shuffle ranks each domain's URLs
    (lexsort + run arithmetic, all domains of a slice in one pass), then
    :func:`ops.ranking.row_number_global` assigns the global position over
    the total order (rank, domain, url) — its one sort + O(blocks) driver
    prefix scalars. Exact integers ⇒ bitwise vs the nested row_number()
    oracle. Output: ``(domain_col, url_col, rank, crawl_pos)``.
    """
    import numpy as np
    import pyarrow as pa

    from ..ops.ranking import row_number_global
    from .windows import _sorted_key_ranks

    def rank_slice(group: pa.Table) -> pa.Table:
        t = group.drop_columns(["slice"])
        if t.num_rows == 0:
            return t.append_column("rank", pa.array([], pa.int64()))
        urls = np.asarray(t[url_col].to_pylist(), dtype=object)
        r = _sorted_key_ranks(t[domain_col])
        order = np.lexsort((urls, r))
        rs = r[order]
        new = np.r_[True, rs[1:] != rs[:-1]]
        starts = np.flatnonzero(new)
        seg = np.cumsum(new) - 1
        rank = np.arange(len(order), dtype=np.int64) - starts[seg] + 1
        out = np.empty(len(order), dtype=np.int64)
        out[order] = rank
        return t.append_column("rank", pa.array(out))

    ranked = (
        ds.select_columns([domain_col, url_col])
        .map_batches(
            dataflow.add_slice(domain_col, dataflow.num_slices()),
            batch_format="pyarrow",
        )
        .groupby("slice")
        .map_groups(rank_slice, batch_format="pyarrow")
    )
    numbered = row_number_global(ranked, ["rank", domain_col, url_col])

    def rename(batch: pa.Table) -> pa.Table:
        return batch.rename_columns(
            [
                "crawl_pos" if c == "row_number" else c
                for c in batch.column_names
            ]
        )

    return numbered.map_batches(rename, batch_format="pyarrow")

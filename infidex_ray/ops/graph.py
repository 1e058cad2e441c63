"""Web-graph operators over edge-list Datasets.

`extract_links` (ops/html.py) produces the crawl's (src, dst) edge list;
this module runs the graph analytics a crawl pipeline derives page-quality
signals from. Everything is expressed as Dataset joins + groupbys — ranks
and edges live in the object store end-to-end, the driver holds only
scalars (N, iteration counter), so the same code runs on a 256-node
cluster's multi-billion-edge graph.

No reference-engine analogue (pure beyond-reference training-data ops).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from . import dataflow
from .dedup import round_half_up4_arr

__all__ = [
    "graph_nodes",
    "pagerank",
    "connected_components",
    "triangle_count",
    "hits_scores",
    "bfs_levels",
    "k_core",
    "link_prediction",
]


def graph_nodes(edges_ds, src_col: str = "src", dst_col: str = "dst"):
    """Distinct node ids of an edge list (src ∪ dst) as a (node) Dataset —
    per-batch unique partials, one node-keyed groupby."""

    def srcs(t: pa.Table) -> pa.Table:
        u = np.unique(t[src_col].to_numpy(zero_copy_only=False))
        return pa.table({"node": pa.array(u, pa.int64())})

    def dsts(t: pa.Table) -> pa.Table:
        u = np.unique(t[dst_col].to_numpy(zero_copy_only=False))
        return pa.table({"node": pa.array(u, pa.int64())})

    both = edges_ds.map_batches(srcs, batch_format="pyarrow").union(
        edges_ds.map_batches(dsts, batch_format="pyarrow")
    )
    distinct = both.groupby("node").count()
    return distinct.map_batches(
        lambda t: pa.table({"node": t["node"]}), batch_format="pyarrow"
    )


def pagerank(
    edges_ds,
    num_iters: int = 3,
    damping: float = 0.85,
    src_col: str = "src",
    dst_col: str = "dst",
    num_partitions: int | None = None,
):
    """Power-iteration PageRank over an integer edge list; returns
    ``(node, rank)`` with rank rounded half-away-from-zero to 4 decimals.

    Simplified (SQL-unrollable) variant: ``r ← (1−d)/N + d·Σ_in r/outdeg``
    with NO dangling-mass redistribution — a dangling page's rank simply
    leaks, which is the common edge-list formulation and keeps every
    iteration a pure join+groupby (bit-reproducible against the unrolled
    DuckDB oracle modulo summation order under round-4).

    Physical plan per iteration: one ``inner`` join (edge ⨝ rank on src),
    one dst-keyed ``groupby().sum`` of contributions, one ``left_outer``
    join back onto the node set — rank state is a materialized Dataset, the
    driver never sees a per-node row. Join parallelism follows
    :func:`infidex_ray.ops.dataflow.join_partitions` (pass ``num_partitions``
    explicitly for billion-edge graphs).
    """
    nodes = graph_nodes(edges_ds, src_col, dst_col).materialize()
    n = float(nodes.count())
    if n == 0:
        return dataflow.typed_empty({"node": pa.int64(), "rank": pa.float64()})
    base = (1.0 - damping) / n
    num_partitions = dataflow.join_partitions(num_partitions)
    # every iteration's joins reuse the node set and the edge list:
    # uniform once, here
    nodes = dataflow.uniform(nodes, num_partitions)

    outdeg = edges_ds.groupby(src_col).count()

    def od_rename(t: pa.Table) -> pa.Table:
        c = "count()" if "count()" in t.column_names else "count"
        return pa.table(
            {src_col: t[src_col], "od": t[c].cast(pa.float64())}
        )

    edges_od = dataflow.uniform(
        dataflow.join(
            edges_ds,
            outdeg.map_batches(od_rename, batch_format="pyarrow"),
            "inner",
            src_col,
            num_partitions,
            stream="left",
        ),
        num_partitions,
    )

    def init_r(t: pa.Table) -> pa.Table:
        return pa.table(
            {"node": t["node"], "r": pa.array(np.full(len(t), 1.0 / n))}
        )

    ranks = nodes.map_batches(init_r, batch_format="pyarrow").materialize()

    for _ in range(num_iters):
        joined = dataflow.join(
            edges_od, ranks, "inner", src_col, num_partitions, right_on="node"
        )

        def contrib(t: pa.Table) -> pa.Table:
            r = t["r"].to_numpy(zero_copy_only=False)
            od = t["od"].to_numpy(zero_copy_only=False)
            return pa.table({"node": t[dst_col], "c": pa.array(r / od)})

        contribs = (
            joined.map_batches(contrib, batch_format="pyarrow")
            .groupby("node")
            .sum("c")
        )

        def c_rename(t: pa.Table) -> pa.Table:
            c = "sum(c)" if "sum(c)" in t.column_names else "c"
            return pa.table({"node": t["node"], "c": t[c]})

        merged = dataflow.join(
            nodes,
            contribs.map_batches(c_rename, batch_format="pyarrow"),
            "left_outer",
            "node",
            num_partitions,
        )

        def update(t: pa.Table) -> pa.Table:
            c = t["c"].to_numpy(zero_copy_only=False)
            c = np.where(np.isnan(c.astype(np.float64)), 0.0, c)
            return pa.table(
                {"node": t["node"], "r": pa.array(base + damping * c)}
            )

        ranks = merged.map_batches(update, batch_format="pyarrow").materialize()

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": t["node"],
                "rank": pa.array(
                    round_half_up4_arr(t["r"].to_numpy(zero_copy_only=False)),
                    pa.float64(),
                ),
            }
        )

    return ranks.map_batches(finish, batch_format="pyarrow")


def connected_components(
    edges_ds,
    src_col: str = "src",
    dst_col: str = "dst",
    num_partitions: int | None = None,
):
    """Connected components over an undirected edge Dataset: returns
    (node, component) with component = the min node id reachable from each
    node. The same size-gated machinery as near-dup clustering
    (``dedup.dedup_clusters_ds``): ≤1M edges union-find on the driver;
    bigger graphs run distributed min-label propagation with pointer
    jumping (O(log diameter) rounds of hash joins, Dataset-resident
    labels) — promoted to a public graph op because component labeling is
    its own pipeline primitive (site clusters, near-dup families, user
    identity stitching), not just a dedup internal."""
    from .dedup import _BROADCAST_VERIFY_MAX_PAIRS, dedup_clusters, dedup_clusters_ds

    def rename(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "id_a": t[src_col].cast(pa.int64()),
                "id_b": t[dst_col].cast(pa.int64()),
            }
        )

    pairs = edges_ds.map_batches(rename, batch_format="pyarrow")
    if num_partitions is None:
        pairs = pairs.materialize()
        if pairs.count() <= _BROADCAST_VERIFY_MAX_PAIRS:
            import ray
            import ray.data

            blocks = [
                t.select(["id_a", "id_b"])
                for t in ray.get(pairs.to_arrow_refs())
                if t.num_rows
            ]
            if not blocks:
                return dataflow.typed_empty(
                    {
                        "node": pa.int64(),
                        "component": pa.int64(),
                    }
                )
            labels = dedup_clusters(pa.concat_tables(blocks).combine_chunks())
            nodes = sorted(labels)
            return ray.data.from_arrow(
                pa.table(
                    {
                        "node": pa.array(nodes, pa.int64()),
                        "component": pa.array(
                            [labels[n] for n in nodes], pa.int64()
                        ),
                    }
                )
            )
    out = dedup_clusters_ds(pairs, num_partitions=num_partitions)

    def comp_rename(t: pa.Table) -> pa.Table:
        return pa.table({"node": t["node"], "component": t["label"]})

    return out.map_batches(comp_rename, batch_format="pyarrow")


def _canonical_edges(edges_ds, src_col: str, dst_col: str, num_slices: int):
    """Distinct undirected edges as canonical ``(a, b)`` with ``a < b`` —
    per-batch unique partials, one coarse pair-hash slice shuffle, one
    vectorized per-slice dedup (never a per-edge Ray group)."""

    def canon(t: pa.Table) -> pa.Table:
        s = t[src_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        d = t[dst_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
        a = np.minimum(s, d)
        b = np.maximum(s, d)
        keep = a != b  # drop self-loops
        pairs = np.unique(np.stack([a[keep], b[keep]], axis=1), axis=0)
        sl = dataflow.slice_of(num_slices, pairs[:, 0], pairs[:, 1])
        return pa.table(
            {
                "a": pa.array(pairs[:, 0], pa.int64()),
                "b": pa.array(pairs[:, 1], pa.int64()),
                "slice": pa.array(sl),
            }
        )

    def dedup_slice(g: pa.Table) -> pa.Table:
        a = g["a"].to_numpy(zero_copy_only=False)
        b = g["b"].to_numpy(zero_copy_only=False)
        pairs = np.unique(np.stack([a, b], axis=1), axis=0)
        return pa.table(
            {
                "a": pa.array(pairs[:, 0], pa.int64()),
                "b": pa.array(pairs[:, 1], pa.int64()),
            }
        )

    return (
        edges_ds.map_batches(canon, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(dedup_slice, batch_format="pyarrow")
    )


def triangle_count(
    edges_ds,
    src_col: str = "src",
    dst_col: str = "dst",
    num_slices: int | None = None,
    max_broadcast_nodes: int = 100_000_000,
):
    """Per-node triangle participation counts over an undirected edge list:
    returns ``(node, triangles)`` for every node in at least one triangle.

    Classic degree-ordered orientation (each canonical edge directed from
    its lower-(degree, id) endpoint), so every triangle is enumerated
    exactly once — at its minimum-(degree, id) vertex — and a hub's wedge
    fan-out is bounded by O(sqrt(m)) out-neighbors instead of its raw
    degree. Physical plan: distinct-edge slice dedup → degree combiner →
    degree table broadcast via ``ray.put`` (one searchsorted probe per
    endpoint; graphs past ``max_broadcast_nodes`` should pre-join degrees
    with ``ops.joins.hash_join`` instead) → per-src wedge expansion
    (vectorized triu indices, one slice groupby) → wedge∩edge membership
    by pair-hash slice (np.unique row identity, no hashing collisions) →
    per-node count combiner. Integer counts — exact vs the SQL oracle.

    No reference-engine analogue (beyond-reference graph analytics)."""
    import ray

    from .agg import grouped_agg
    if num_slices is None:
        num_slices = dataflow.num_slices()

    edges = _canonical_edges(edges_ds, src_col, dst_col, num_slices).materialize()

    # degree per node over the distinct undirected edge set
    def endpoints(t: pa.Table) -> pa.Table:
        return pa.table(
            {"node": pa.concat_arrays([t["a"].combine_chunks(), t["b"].combine_chunks()])}
        )

    deg = grouped_agg(
        edges.map_batches(endpoints, batch_format="pyarrow"),
        "node",
        {"deg": ("count", "node")},
        num_slices=num_slices,
    ).materialize()
    n_nodes = deg.count()
    if n_nodes == 0:
        return dataflow.typed_empty({"node": pa.int64(), "triangles": pa.int64()})
    if n_nodes > max_broadcast_nodes:
        raise ValueError(
            f"triangle_count: {n_nodes} nodes > max_broadcast_nodes="
            f"{max_broadcast_nodes}; pre-join degrees with ops.joins.hash_join"
        )
    parts = [
        t.select(["node", "deg"])
        for t in ray.get(deg.to_arrow_refs())
        if t.num_rows
    ]
    deg_tbl = pa.concat_tables(parts).combine_chunks()
    nodes_np = deg_tbl["node"].to_numpy(zero_copy_only=False)
    degs_np = deg_tbl["deg"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(nodes_np, kind="stable")
    deg_ref = ray.put((nodes_np[order], degs_np[order]))

    def orient(t: pa.Table) -> pa.Table:
        """Direct each canonical edge lower-(deg, id) → higher-(deg, id)."""
        nd, dg = ray.get(deg_ref)
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        da = dg[np.searchsorted(nd, a)]
        db = dg[np.searchsorted(nd, b)]
        # a < b always, so on degree ties the lower id (= a) leads
        a_first = da <= db
        src = np.where(a_first, a, b)
        dst = np.where(a_first, b, a)
        sl = dataflow.slice_of(num_slices, src)
        return pa.table(
            {
                "src": pa.array(src, pa.int64()),
                "dst": pa.array(dst, pa.int64()),
                "slice": pa.array(sl),
            }
        )

    oriented = edges.map_batches(orient, batch_format="pyarrow")

    def wedges(g: pa.Table) -> pa.Table:
        """All out-neighbor pairs per src: wedge (apex, p, q) with the
        (p, q) leg canonicalized to p < q for edge-set membership."""
        src = g["src"].to_numpy(zero_copy_only=False)
        dst = g["dst"].to_numpy(zero_copy_only=False)
        if len(src) == 0:
            return pa.table(
                {
                    "apex": pa.array([], pa.int64()),
                    "p": pa.array([], pa.int64()),
                    "q": pa.array([], pa.int64()),
                    "slice": pa.array([], pa.int32()),
                }
            )
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        starts = np.flatnonzero(np.r_[True, src[1:] != src[:-1]])
        ends = np.r_[starts[1:], len(src)]
        sizes = ends - starts
        # vectorized expansion batched by out-degree: one triu broadcast per
        # DISTINCT group size (O(sqrt m) sizes under degree ordering), never
        # a Python iteration per src group
        apex_l, p_l, q_l = [], [], []
        for k in np.unique(sizes):
            if k < 2:
                continue
            g_start = starts[sizes == k]
            nb = dst[g_start[:, None] + np.arange(k)]  # (G, k)
            iu, ju = np.triu_indices(int(k), 1)
            apex_l.append(np.repeat(src[g_start], len(iu)))
            p_l.append(nb[:, iu].ravel())
            q_l.append(nb[:, ju].ravel())
        if not apex_l:
            return pa.table(
                {
                    "apex": pa.array([], pa.int64()),
                    "p": pa.array([], pa.int64()),
                    "q": pa.array([], pa.int64()),
                    "slice": pa.array([], pa.int32()),
                }
            )
        apex = np.concatenate(apex_l)
        p = np.concatenate(p_l)
        q = np.concatenate(q_l)
        lo = np.minimum(p, q)
        hi = np.maximum(p, q)
        sl = dataflow.slice_of(num_slices, lo, hi)
        return pa.table(
            {
                "apex": pa.array(apex, pa.int64()),
                "p": pa.array(lo, pa.int64()),
                "q": pa.array(hi, pa.int64()),
                "slice": pa.array(sl),
            }
        )

    wedge_ds = oriented.groupby("slice").map_groups(wedges, batch_format="pyarrow")

    def tag_edge(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        sl = dataflow.slice_of(num_slices, a, b)
        return pa.table(
            {
                "apex": pa.nulls(len(a), pa.int64()),
                "p": pa.array(a, pa.int64()),
                "q": pa.array(b, pa.int64()),
                "slice": pa.array(sl),
            }
        )

    tagged = wedge_ds.union(edges.map_batches(tag_edge, batch_format="pyarrow"))

    def close_slice(g: pa.Table) -> pa.Table:
        """Triangles in this slice: wedge rows whose (p, q) leg exists in
        the edge rows — exact row identity via np.unique(axis=0)."""
        apex = g["apex"].to_numpy(zero_copy_only=False)
        p = g["p"].to_numpy(zero_copy_only=False).astype(np.int64)
        q = g["q"].to_numpy(zero_copy_only=False).astype(np.int64)
        is_edge = pa.compute.is_null(g["apex"].combine_chunks()).to_numpy(
            zero_copy_only=False
        )
        pairs = np.stack([p, q], axis=1)
        uniq, inv = np.unique(pairs, axis=0, return_inverse=True)
        edge_present = np.zeros(len(uniq), dtype=bool)
        edge_present[inv[is_edge]] = True
        match = (~is_edge) & edge_present[inv]
        if not match.any():
            return pa.table({"node": pa.array([], pa.int64())})
        ap = apex[match].astype(np.int64)
        return pa.table(
            {"node": pa.array(np.concatenate([ap, p[match], q[match]]), pa.int64())}
        )

    tri_nodes = tagged.groupby("slice").map_groups(
        close_slice, batch_format="pyarrow"
    )
    return grouped_agg(
        tri_nodes, "node", {"triangles": ("count", "node")}, num_slices=num_slices
    )


# --- HITS (hubs & authorities) ----------------------------------------------


def _nodes_with_value(nodes, value: int, col: str):
    def init(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "node": t["node"],
                col: pa.array(np.full(len(t), value, dtype=np.int64), pa.int64()),
            }
        )

    return nodes.map_batches(init, batch_format="pyarrow")


def _half_step(edges_ds, scores, nodes, key_col, other_col, out_col, scale, num_partitions):
    """One HITS half-step: gather ``scores`` across edges onto ``key_col``'s
    endpoints (sum of the OTHER endpoint's score), then max-normalize back
    to ``[0, scale]`` in pure int64 arithmetic."""
    joined = dataflow.join(
        edges_ds, scores, "inner", other_col, num_partitions, right_on="node",
        stream="left",
    )
    val_col = [c for c in scores.schema().names if c != "node"][0]

    def gather(t: pa.Table) -> pa.Table:
        return pa.table({"node": t[key_col], "v": t[val_col]})

    from .agg import grouped_agg

    # node keys are ~unique at graph scale — the slice-combiner grouped_agg
    # (per-block Arrow partials + coarse hash slices) replaces the per-node
    # Ray groupby (the repo-wide "never groupby a ~unique key" policy);
    # int64 sums are exact either way, so scores are bit-identical
    raw = grouped_agg(
        joined.map_batches(gather, batch_format="pyarrow"),
        "node",
        {"v": ("sum", "v")},
    ).materialize()
    mx = raw.max("v") if raw.count() else 0
    if not mx:
        return _nodes_with_value(nodes, 0, out_col).materialize()

    merged = dataflow.join(nodes, raw, "left_outer", "node", num_partitions)

    def norm(t: pa.Table) -> pa.Table:
        v = t["v"].to_numpy(zero_copy_only=False).astype(np.float64)
        v = np.where(np.isnan(v), 0.0, v).astype(np.int64)
        return pa.table(
            {"node": t["node"], out_col: pa.array((v * scale) // mx, pa.int64())}
        )

    return merged.map_batches(norm, batch_format="pyarrow").materialize()


def hits_scores(
    edges_ds,
    num_iters: int = 2,
    scale: int = 1_000_000,
    src_col: str = "src",
    dst_col: str = "dst",
    num_partitions: int | None = None,
):
    """Kleinberg HITS hubs/authorities over a directed edge Dataset, in
    INTEGER fixed-point so every engine (and the unrolled DuckDB oracle)
    agrees bit-for-bit: scores live in ``[0, scale]`` as int64, each
    half-step is ``x ← Σ (int sum, order-free) → x·scale // max(x)`` —
    no float ever enters the iteration, so summation order cannot perturb
    the result the way float power iterations can.

    Per iteration: authority ``a(v) = Σ_{(u,v)∈E} h(u)`` then max-norm,
    hub ``h(u) = Σ_{(u,v)∈E} a(v)`` then max-norm (multigraph semantics:
    duplicate edges count twice — the oracle scans the same edge list).
    Physical plan mirrors :func:`pagerank`: score state is a materialized
    Dataset, each half-step is one hash join + one int groupby-sum + one
    left join back onto the node set; the driver sees only the scalar max.

    Overflow bound: ``Σ ≤ degree·scale`` and the normalize multiplies by
    ``scale`` again, so ``max_degree·scale² < 2^63`` — at the default
    ``scale=1e6`` that is max in/out-degree < 9.2e6; lower ``scale`` for
    hub pages beyond that. Returns ``(node, hub, authority)`` int64.
    """
    if num_iters < 1:
        raise ValueError("hits_scores requires num_iters >= 1")

    nodes = graph_nodes(edges_ds, src_col, dst_col).materialize()
    if nodes.count() == 0:
        return dataflow.typed_empty(
            {"node": pa.int64(), "hub": pa.int64(), "authority": pa.int64()}
        )
    num_partitions = dataflow.join_partitions(num_partitions)
    nodes = dataflow.uniform(nodes, num_partitions)  # every half-step joins it
    hub = _nodes_with_value(nodes, scale, "h").materialize()
    auth = None
    for _ in range(num_iters):
        # a(v) = sum of h over in-edges (u,v); gather keyed by dst
        auth = _half_step(
            edges_ds, hub, nodes, dst_col, src_col, "a", scale, num_partitions
        )
        # h(u) = sum of a over out-edges (u,v); gather keyed by src
        hub = _half_step(
            edges_ds, auth, nodes, src_col, dst_col, "h", scale, num_partitions
        )

    out = dataflow.join(hub, auth, "inner", "node", num_partitions)
    return out.map_batches(
        lambda t: pa.table(
            {"node": t["node"], "hub": t["h"], "authority": t["a"]}
        ),
        batch_format="pyarrow",
    )


# --- multi-source BFS ---------------------------------------------------------


def _distinct_nodes(ds, num_slices: int | None = None):
    """Distinct ``node`` values via per-batch unique partials + a coarse
    mixed-hash slice groupby (node ids are ~unique keys — never one Ray
    group per node)."""
    num_slices = num_slices or dataflow.num_slices()

    def partial(t: pa.Table) -> pa.Table:
        u = np.unique(t["node"].to_numpy(zero_copy_only=False)).astype(np.int64)
        sl = dataflow.slice_of(num_slices, u)
        return pa.table({"node": pa.array(u, pa.int64()), "slice": pa.array(sl)})

    def dedup_slice(g: pa.Table) -> pa.Table:
        u = np.unique(g["node"].to_numpy(zero_copy_only=False)).astype(np.int64)
        return pa.table({"node": pa.array(u, pa.int64())})

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(dedup_slice, batch_format="pyarrow")
    )


def bfs_levels(
    edges_ds,
    seeds_ds,
    max_depth: int = 4,
    src_col: str = "src",
    dst_col: str = "dst",
    num_partitions: int | None = None,
):
    """Multi-source BFS over a directed edge Dataset: returns
    ``(node, level)`` where level = length of the shortest edge path from
    any seed (0 for seeds themselves), levels ≤ ``max_depth``.

    Classic frontier expansion, every structure Dataset-resident: per
    round, one hash join (edges ⨝ frontier on src) discovers the next
    ring, a slice-grouped distinct collapses it, and one ``left_anti``
    join against the visited set drops already-levelled nodes — O(depth)
    rounds, the driver holds only the round counter and the emptiness
    scalar. The oracle is the recursive-CTE reachability closure with
    ``min(level)``.
    """
    num_partitions = dataflow.join_partitions(num_partitions)

    def with_level(ds, lvl: int):
        return ds.map_batches(
            lambda t, L=lvl: pa.table(
                {
                    "node": t["node"].cast(pa.int64()),
                    "level": pa.array(np.full(len(t), L, dtype=np.int64)),
                }
            ),
            batch_format="pyarrow",
        )

    frontier = _distinct_nodes(seeds_ds, num_partitions).materialize()
    visited = with_level(frontier, 0).materialize()
    if frontier.count() == 0:
        return visited
    for lvl in range(1, max_depth + 1):
        nxt = dataflow.join(
            edges_ds, frontier, "inner", src_col, num_partitions, right_on="node",
            stream="left",
        )
        ring = _distinct_nodes(
            nxt.map_batches(
                lambda t: pa.table({"node": t[dst_col].cast(pa.int64())}),
                batch_format="pyarrow",
            ),
            num_partitions,
        )
        new = dataflow.join(
            ring, visited, "left_anti", "node", num_partitions
        ).materialize()
        if new.count() == 0:
            break
        visited = visited.union(with_level(new, lvl)).materialize()
        frontier = new
    return visited


# --- k-core peeling -----------------------------------------------------------


def k_core(
    edges_ds,
    k: int = 2,
    max_rounds: int = 3,
    src_col: str = "src",
    dst_col: str = "dst",
    num_partitions: int | None = None,
):
    """Bounded k-core peeling over the undirected distinct-edge graph:
    each round computes every node's degree, drops nodes with degree < k,
    and restricts the edge set to surviving endpoints — after
    ``max_rounds`` rounds (or earlier convergence, which is invisible in
    the output: a converged round is a no-op, so stopping early equals the
    oracle's fixed unroll) returns ``(node, degree)`` over the surviving
    edges. The classic community-density / spam-farm filter on web graphs.

    Plan per round: degree via :func:`infidex_ray.ops.agg.grouped_agg`
    (per-block Arrow count partials — never one Ray group per ~unique
    node), survivors filtered row-locally, then two ``left_semi`` joins
    restrict the edge list (``ops.dataflow.join``). Edges and survivor sets stay
    Dataset-resident; the driver sees only per-round counts."""
    from .agg import grouped_agg

    edges = _canonical_edges(
        edges_ds, src_col, dst_col, dataflow.num_slices()
    ).materialize()

    def empty_out():
        return dataflow.typed_empty({"node": pa.int64(), "degree": pa.int64()})

    def endpoints(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        return pa.table(
            {"node": pa.array(np.concatenate([a, b]).astype(np.int64), pa.int64())}
        )

    def degrees(e):
        return grouped_agg(
            e.map_batches(endpoints, batch_format="pyarrow"),
            "node",
            {"degree": ("count", "node")},
        )

    n_edges = edges.count()
    if n_edges == 0:
        return empty_out()
    for _ in range(max_rounds):
        deg = degrees(edges)
        surv = (
            deg.filter(lambda r, kk=k: r["degree"] >= kk)
            .select_columns(["node"])
            .materialize()
        )
        e2 = dataflow.join(
            edges, surv, "left_semi", "a", num_partitions, right_on="node"
        )
        e2 = dataflow.join(
            e2, surv, "left_semi", "b", num_partitions, right_on="node"
        ).materialize()
        n2 = e2.count()
        if n2 == 0:
            return empty_out()
        converged = n2 == n_edges
        edges, n_edges = e2, n2
        if converged:
            break
    return degrees(edges)


# --- strongly connected components -------------------------------------------


def _scc_tarjan(src: np.ndarray, dst: np.ndarray) -> dict[int, int]:
    """Iterative Tarjan over an in-memory edge list: node → scc label with
    label = MIN node id in the component (driver fast path — the same
    size-gated convention as dedup_clusters / connected_components)."""
    nodes = np.unique(np.concatenate([src, dst]))
    idx_of = {int(n): i for i, n in enumerate(nodes)}
    n = len(nodes)
    order = np.argsort(src, kind="stable")
    s_sorted = src[order]
    starts = np.searchsorted(s_sorted, nodes, side="left")
    ends = np.searchsorted(s_sorted, nodes, side="right")
    adj_dst = dst[order]

    index = np.full(n, -1, dtype=np.int64)
    low = np.zeros(n, dtype=np.int64)
    on_stack = np.zeros(n, dtype=bool)
    stack: list[int] = []
    labels: dict[int, int] = {}
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        # explicit DFS stack: (vertex, next-edge-cursor)
        work = [(root, int(starts[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, cur = work[-1]
            if cur < ends[v]:
                work[-1] = (v, cur + 1)
                w = idx_of[int(adj_dst[cur])]
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, int(starts[w])))
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    pv = work[-1][0]
                    low[pv] = min(low[pv], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(int(nodes[w]))
                        if w == v:
                            break
                    m = min(comp)
                    for c in comp:
                        labels[c] = m
    return labels


def scc(
    edges_ds,
    src_col: str = "src",
    dst_col: str = "dst",
    num_partitions: int | None = None,
    max_rounds: int = 30,
    max_iters: int = 50,
):
    """Strongly connected components over a DIRECTED edge Dataset: returns
    ``(node, scc_id)`` with scc_id = the MIN node id in the component —
    the web-graph primitive behind link-farm/spider-trap detection and
    condensation-DAG analytics (Broder et al.'s bow-tie decomposition).

    Size-gated like :func:`connected_components`: ≤1M edges run iterative
    Tarjan on the driver; larger graphs (or explicit ``num_partitions``)
    run distributed MIN-color peeling (Orzan's coloring, FW-BW family):
    per outer round, (1) a forward min-label fixpoint — color(v) = min id
    that can reach v — via O(log diameter) join rounds; (2) nodes with
    ``color == self`` are pivots, and a pivot's SCC is exactly the nodes
    of its color class that can REACH it (backward fixpoint within the
    class); (3) settled SCCs leave the graph. A pivot is provably the MIN
    of its SCC (nothing smaller reaches it), so labels match Tarjan
    bit-for-bit (parity test). Outer rounds ≤ condensation depth in the
    min-reachability order, bounded by ``max_rounds``."""
    import ray
    import ray.data

    from .dedup import _BROADCAST_VERIFY_MAX_PAIRS

    def norm(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "src": t[src_col].cast(pa.int64()),
                "dst": t[dst_col].cast(pa.int64()),
            }
        )

    edges0 = edges_ds.map_batches(norm, batch_format="pyarrow").materialize()
    n_edges = edges0.count()
    if n_edges == 0:
        return dataflow.typed_empty({"node": pa.int64(), "scc_id": pa.int64()})

    if num_partitions is None and n_edges <= _BROADCAST_VERIFY_MAX_PAIRS:
        blocks = [t for t in ray.get(edges0.to_arrow_refs()) if t.num_rows]
        t = pa.concat_tables(blocks).combine_chunks()
        labels = _scc_tarjan(
            t["src"].to_numpy(zero_copy_only=False).astype(np.int64),
            t["dst"].to_numpy(zero_copy_only=False).astype(np.int64),
        )
        nodes = sorted(labels)
        return ray.data.from_arrow(
            pa.table(
                {
                    "node": pa.array(nodes, pa.int64()),
                    "scc_id": pa.array([labels[v] for v in nodes], pa.int64()),
                }
            )
        )

    num_partitions = dataflow.join_partitions(num_partitions)

    def col_min(t: pa.Table, a: str, out: str) -> pa.Table:
        name = f"min({a})" if f"min({a})" in t.column_names else a
        return pa.table({"node": t["node"], out: t[name]})

    def join(left, right, how, on, right_on=None):
        return dataflow.join(left, right, how, on, num_partitions, right_on=right_on)

    edges = edges0
    done_parts: list = []
    for _round in range(max_rounds):
        if edges.count() == 0:
            break
        # --- forward min-color fixpoint --------------------------------
        nodes = _distinct_nodes(
            edges.map_batches(
                lambda t: pa.table(
                    {"node": pa.concat_arrays(
                        [t["src"].combine_chunks(), t["dst"].combine_chunks()]
                    )}
                ),
                batch_format="pyarrow",
            ),
            num_partitions,
        ).materialize()
        colors = nodes.map_batches(
            lambda t: pa.table({"node": t["node"], "color": t["node"]}),
            batch_format="pyarrow",
        ).materialize()
        for _ in range(max_iters):
            prop = join(edges, colors, "inner", "src", "node").map_batches(
                lambda t: pa.table({"node": t["dst"], "color": t["color"]}),
                batch_format="pyarrow",
            )
            merged = (
                colors.union(prop.materialize())
                .groupby("node")
                .min("color")
                .map_batches(
                    lambda t: col_min(t, "color", "color"),
                    batch_format="pyarrow",
                )
                .materialize()
            )
            # changed-count: one scalar to the driver
            old = colors.map_batches(
                lambda t: pa.table(
                    {"node": t["node"], "old": t["color"]}
                ),
                batch_format="pyarrow",
            )
            diff = join(merged, old, "inner", "node").map_batches(
                lambda t: t.filter(
                    pa.compute.not_equal(t["color"], t["old"])
                ).select(["node"]),
                batch_format="pyarrow",
            )
            changed = diff.count()
            colors = merged
            if changed == 0:
                break
        else:
            # non-convergence would silently mislabel long cycles as
            # singletons (one edge-hop per round; a 100-cycle needs 100
            # rounds) — refuse instead of returning wrong labels
            raise RuntimeError(
                "scc: forward min-color fixpoint did not converge within "
                f"max_iters={max_iters}; raise max_iters (graph has a "
                "reachability chain longer than the bound)"
            )
        # --- backward membership fixpoint within color classes ----------
        # edge (u→v) is INTERNAL to a class iff color(u) == color(v);
        # mark(v) starts at pivots (color == node) and flows BACKWARD
        # along internal edges to exactly the pivot's SCC.
        ec = join(edges, colors, "inner", "src", "node").map_batches(
            lambda t: pa.table(
                {"src": t["src"], "dst": t["dst"], "c_src": t["color"]}
            ),
            batch_format="pyarrow",
        )
        cd = colors.map_batches(
            lambda t: pa.table({"node": t["node"], "c_dst": t["color"]}),
            batch_format="pyarrow",
        )
        internal = join(ec, cd, "inner", "dst", "node").map_batches(
            lambda t: t.filter(
                pa.compute.equal(t["c_src"], t["c_dst"])
            ).select(["src", "dst"]),
            batch_format="pyarrow",
        ).materialize()
        marked = colors.map_batches(
            lambda t: t.filter(
                pa.compute.equal(t["node"], t["color"])
            ).select(["node"]),
            batch_format="pyarrow",
        ).materialize()
        frontier = marked
        for _ in range(max_iters):
            if frontier.count() == 0:
                break
            nxt = join(internal, frontier, "inner", "dst", "node").map_batches(
                lambda t: pa.table({"node": t["src"]}),
                batch_format="pyarrow",
            )
            nxt = _distinct_nodes(nxt, num_partitions)
            new = join(nxt, marked, "left_anti", "node").materialize()
            if new.count() == 0:
                break
            marked = marked.union(new).materialize()
            frontier = new
        else:
            raise RuntimeError(
                "scc: backward membership fixpoint did not converge within "
                f"max_iters={max_iters}; raise max_iters (an SCC has a "
                "cycle longer than the bound)"
            )
        settled = join(marked, colors, "inner", "node").map_batches(
            lambda t: pa.table({"node": t["node"], "scc_id": t["color"]}),
            batch_format="pyarrow",
        ).materialize()
        done_parts.append(settled)
        # singletons with no internal edges never get marked twice —
        # remove settled nodes and their edges, loop
        settled_ids = settled.select_columns(["node"])
        edges = join(edges, settled_ids, "left_anti", "src", "node")
        edges = join(edges, settled_ids, "left_anti", "dst", "node").materialize()
        if edges.count() == 0:
            break
    else:
        if edges.count() > 0:
            # unprocessed edges after max_rounds: the leftover cleanup
            # below would mislabel their nodes as singletons
            raise RuntimeError(
                "scc: condensation peeling did not finish within "
                f"max_rounds={max_rounds}; raise max_rounds"
            )
    out = done_parts[0]
    for p in done_parts[1:]:
        out = out.union(p)
    out = out.materialize()
    # nodes stranded edge-less after earlier removals never re-enter the
    # loop's node set — they are singleton SCCs of themselves
    all_nodes = _distinct_nodes(
        edges0.map_batches(
            lambda t: pa.table(
                {"node": pa.concat_arrays(
                    [t["src"].combine_chunks(), t["dst"].combine_chunks()]
                )}
            ),
            batch_format="pyarrow",
        ),
        num_partitions,
    )
    leftover = join(
        all_nodes, out.select_columns(["node"]), "left_anti", "node"
    ).materialize()
    if leftover.count() > 0:
        out = out.union(
            leftover.map_batches(
                lambda t: pa.table({"node": t["node"], "scc_id": t["node"]}),
                batch_format="pyarrow",
            )
        )
    return out.materialize()


def bowtie(
    edges_ds,
    src_col: str = "src",
    dst_col: str = "dst",
    num_partitions: int | None = None,
    max_depth: int = 64,
):
    """Broder et al.'s bow-tie decomposition of a directed web graph
    (WWW 2000): classify every node against the largest SCC (the CORE) as
    ``core`` / ``in`` (reaches the core) / ``out`` (reachable from the
    core) / ``tendril`` (weakly attached to the bow-tie but neither) /
    ``disconnected``. Ties for the largest SCC break to the smallest
    scc_id. Returns ``(node, region)``.

    Composition of the existing primitives — :func:`scc` (core),
    :func:`bfs_levels` forward/backward from the core (IN/OUT; F∩B = core
    by SCC maximality, so the classification order is unambiguous), and
    :func:`connected_components` on the undirected edge set (weak
    attachment). Raises when a BFS frontier is still live at
    ``max_depth`` (reachability would be under-approximated — raise the
    bound instead of silently misclassifying)."""
    labels = scc(edges_ds, src_col, dst_col, num_partitions).materialize()
    sizes = labels.groupby("scc_id").count()

    def csize(t: pa.Table) -> pa.Table:
        c = "count()" if "count()" in t.column_names else "count"
        return pa.table({"scc_id": t["scc_id"], "n": t[c]})

    top = (
        sizes.map_batches(csize, batch_format="pyarrow")
        .sort(["n", "scc_id"], descending=[True, False])
        .limit(1)
        .take_all()
    )
    if not top:
        return dataflow.typed_empty({"node": pa.int64(), "region": pa.string()})
    core_id = int(top[0]["scc_id"])

    def core_only(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table(
            {"node": t.filter(pc.equal(t["scc_id"], core_id))["node"]}
        )

    core_nodes = labels.map_batches(core_only, batch_format="pyarrow")

    def rev(t: pa.Table) -> pa.Table:
        return pa.table({src_col: t[dst_col], dst_col: t[src_col]})

    num_partitions = dataflow.join_partitions(num_partitions)

    def reach_flags(e_ds, flag: str):
        """(node, <flag>=1) Dataset of nodes reachable from the core —
        stays Dataset-resident (never a driver set: OUT can be half the
        web graph)."""
        lv = bfs_levels(
            e_ds, core_nodes, max_depth=max_depth,
            src_col=src_col, dst_col=dst_col,
            num_partitions=num_partitions,
        ).materialize()
        deepest = lv.max("level") if lv.count() else 0
        if deepest is not None and deepest >= max_depth:
            raise RuntimeError(
                f"bowtie: BFS frontier still live at max_depth={max_depth}; "
                "raise max_depth"
            )
        return lv.map_batches(
            lambda t, fl=flag: pa.table(
                {
                    "node": t["node"],
                    fl: pa.array(np.ones(len(t), dtype=np.int8)),
                }
            ),
            batch_format="pyarrow",
        )

    fwd = reach_flags(edges_ds, "f")
    bwd = reach_flags(
        edges_ds.map_batches(rev, batch_format="pyarrow"), "b"
    )
    weak = connected_components(
        edges_ds, src_col, dst_col, num_partitions
    ).materialize()
    core_weak_rows = weak.filter(
        expr=f"node == {core_id}"
    ).take_all()  # one scalar: the core's weak-component label
    core_weak = (
        int(core_weak_rows[0]["component"]) if core_weak_rows else None
    )

    x = labels
    for side in (fwd, bwd, weak):
        x = dataflow.join(x, side, "left_outer", "node", num_partitions)

    def classify(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        sccs = t["scc_id"].to_numpy(zero_copy_only=False)
        fflag = pc.fill_null(t["f"], 0).to_numpy(zero_copy_only=False)
        bflag = pc.fill_null(t["b"], 0).to_numpy(zero_copy_only=False)
        comp = pc.fill_null(t["component"], -1).to_numpy(
            zero_copy_only=False
        )
        region = np.where(
            sccs == core_id,
            "core",
            np.where(
                bflag == 1,
                "in",
                np.where(
                    fflag == 1,
                    "out",
                    np.where(
                        comp == (core_weak if core_weak is not None else -2),
                        "tendril",
                        "disconnected",
                    ),
                ),
            ),
        )
        return pa.table(
            {"node": t["node"], "region": pa.array(region.tolist(), pa.string())}
        )

    return x.map_batches(classify, batch_format="pyarrow")


def link_prediction(
    edges_ds,
    src_col: str = "src",
    dst_col: str = "dst",
    min_cn: int = 1,
    max_center_degree: int = 4096,
    num_slices: int | None = None,
    max_broadcast_nodes: int = 100_000_000,
):
    """Neighborhood-overlap link prediction over an undirected edge list:
    for every NON-edge pair (u, v) sharing ≥ ``min_cn`` neighbors, the
    classic candidate scores — common-neighbor count, neighborhood
    Jaccard ``cn / (deg_u + deg_v − cn)`` and preferential attachment
    ``deg_u · deg_v`` (Liben-Nowell & Kleinberg 2003; integer/exact-ratio
    forms so the SQL oracle matches bitwise — Adamic-Adar's ``1/ln deg``
    is deliberately omitted, DuckDB ``ln`` is not IEEE-identical to
    numpy's). Output: ``(u, v, common_neighbors, jaccard, pref_attach)``
    with u < v.

    Scale: wedges fan out O(deg²) per center, so centers above
    ``max_center_degree`` are SKIPPED as apexes (hub wedges explode;
    their pairs still appear via lower-degree centers) — the oracle
    mirrors the skip. Physical plan = the triangle_count machinery:
    distinct-edge slice dedup → degree combiner + ``ray.put`` broadcast
    (graphs past ``max_broadcast_nodes`` raise; pre-join degrees with
    ops.joins.hash_join) → per-center triu wedge expansion → pair-hash
    slice groupby that counts wedges and anti-joins the edge set in one
    vectorized pass. No reference-engine analogue (beyond-reference
    graph analytics)."""
    import ray

    from .agg import grouped_agg
    if num_slices is None:
        num_slices = dataflow.num_slices()

    edges = _canonical_edges(edges_ds, src_col, dst_col, num_slices).materialize()

    def endpoints(t: pa.Table) -> pa.Table:
        return pa.table(
            {"node": pa.concat_arrays([t["a"].combine_chunks(), t["b"].combine_chunks()])}
        )

    deg = grouped_agg(
        edges.map_batches(endpoints, batch_format="pyarrow"),
        "node",
        {"deg": ("count", "node")},
        num_slices=num_slices,
    ).materialize()
    n_nodes = deg.count()
    empty = pa.table(
        {
            "u": pa.array([], pa.int64()),
            "v": pa.array([], pa.int64()),
            "common_neighbors": pa.array([], pa.int64()),
            "jaccard": pa.array([], pa.float64()),
            "pref_attach": pa.array([], pa.int64()),
        }
    )
    if n_nodes == 0:
        return ray.data.from_arrow(empty)
    if n_nodes > max_broadcast_nodes:
        raise ValueError(
            f"link_prediction: {n_nodes} nodes > max_broadcast_nodes="
            f"{max_broadcast_nodes}; pre-join degrees with ops.joins.hash_join"
        )
    parts = [
        t.select(["node", "deg"])
        for t in ray.get(deg.to_arrow_refs())
        if t.num_rows
    ]
    deg_tbl = pa.concat_tables(parts).combine_chunks()
    nodes_np = deg_tbl["node"].to_numpy(zero_copy_only=False)
    degs_np = deg_tbl["deg"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.argsort(nodes_np, kind="stable")
    deg_ref = ray.put((nodes_np[order], degs_np[order]))

    def directed(t: pa.Table) -> pa.Table:
        """Both directions, center-sliced; hub centers dropped here."""
        nd, dg = ray.get(deg_ref)
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        ctr = np.concatenate([a, b])
        nbr = np.concatenate([b, a])
        keep = dg[np.searchsorted(nd, ctr)] <= max_center_degree
        ctr, nbr = ctr[keep], nbr[keep]
        sl = dataflow.slice_of(num_slices, ctr)
        return pa.table(
            {
                "ctr": pa.array(ctr, pa.int64()),
                "nbr": pa.array(nbr, pa.int64()),
                "slice": pa.array(sl),
            }
        )

    def wedges(g: pa.Table) -> pa.Table:
        ctr = g["ctr"].to_numpy(zero_copy_only=False)
        nbr = g["nbr"].to_numpy(zero_copy_only=False)
        out = {
            "p": pa.array([], pa.int64()),
            "q": pa.array([], pa.int64()),
            "is_wedge": pa.array([], pa.bool_()),
            "slice": pa.array([], pa.int32()),
        }
        if len(ctr) == 0:
            return pa.table(out)
        order = np.lexsort((nbr, ctr))
        ctr, nbr = ctr[order], nbr[order]
        starts = np.flatnonzero(np.r_[True, ctr[1:] != ctr[:-1]])
        ends = np.r_[starts[1:], len(ctr)]
        sizes = ends - starts
        p_l, q_l = [], []
        for k in np.unique(sizes):
            if k < 2:
                continue
            g_start = starts[sizes == k]
            nb = nbr[g_start[:, None] + np.arange(k)]
            iu, ju = np.triu_indices(int(k), 1)
            p_l.append(nb[:, iu].ravel())
            q_l.append(nb[:, ju].ravel())
        if not p_l:
            return pa.table(out)
        p = np.concatenate(p_l)
        q = np.concatenate(q_l)
        lo = np.minimum(p, q)
        hi = np.maximum(p, q)
        sl = dataflow.slice_of(num_slices, lo, hi)
        return pa.table(
            {
                "p": pa.array(lo, pa.int64()),
                "q": pa.array(hi, pa.int64()),
                "is_wedge": pa.array(np.ones(len(lo), dtype=bool)),
                "slice": pa.array(sl),
            }
        )

    def tag_edge(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False)
        b = t["b"].to_numpy(zero_copy_only=False)
        sl = dataflow.slice_of(num_slices, a, b)
        return pa.table(
            {
                "p": pa.array(a, pa.int64()),
                "q": pa.array(b, pa.int64()),
                "is_wedge": pa.array(np.zeros(len(a), dtype=bool)),
                "slice": pa.array(sl),
            }
        )

    wedge_ds = (
        edges.map_batches(directed, batch_format="pyarrow")
        .groupby("slice")
        .map_groups(wedges, batch_format="pyarrow")
    )
    tagged = wedge_ds.union(edges.map_batches(tag_edge, batch_format="pyarrow"))

    def score_slice(g: pa.Table) -> pa.Table:
        p = g["p"].to_numpy(zero_copy_only=False).astype(np.int64)
        q = g["q"].to_numpy(zero_copy_only=False).astype(np.int64)
        is_w = g["is_wedge"].to_numpy(zero_copy_only=False)
        if len(p) == 0:
            return empty
        pairs = np.stack([p, q], axis=1)
        uniq, inv = np.unique(pairs, axis=0, return_inverse=True)
        cn = np.bincount(inv[is_w], minlength=len(uniq))
        has_edge = np.zeros(len(uniq), dtype=bool)
        has_edge[inv[~is_w]] = True
        keep = (~has_edge) & (cn >= min_cn)
        if not keep.any():
            return empty
        u = uniq[keep, 0]
        v = uniq[keep, 1]
        c = cn[keep].astype(np.int64)
        nd, dg = ray.get(deg_ref)
        du = dg[np.searchsorted(nd, u)]
        dv = dg[np.searchsorted(nd, v)]
        jac = c / (du + dv - c)
        jac = round_half_up4_arr(jac)
        return pa.table(
            {
                "u": pa.array(u, pa.int64()),
                "v": pa.array(v, pa.int64()),
                "common_neighbors": pa.array(c, pa.int64()),
                "jaccard": pa.array(jac, pa.float64()),
                "pref_attach": pa.array(du * dv, pa.int64()),
            }
        )

    return tagged.groupby("slice").map_groups(score_slice, batch_format="pyarrow")

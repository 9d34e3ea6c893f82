"""The three graph operators the knowledge-graph queries use.

``connected_components``: weakly-connected components with the same guarded
two-path design as every small-side assumption in this repo — exact driver
union-find while the edge table is comfortably small (<= collect_max rows,
broadcast only the result), else distributed min-label propagation (one hash
join + groupby-min per round, label-sum convergence, loud failure if a
component's diameter outruns max_rounds). Works for integer or string node
ids (component representative = the min id under the type's natural order).
Used by ``kg.component_sizes_topk`` (the ``kg_components`` query, entity-key
graph) and ``dedup.near_dup_survivors`` (doc-id pair graph).

``pagerank``: fixed-iteration PageRank with per-iteration rounding; used by
the ``kg_pagerank_topk`` query over the linked triples.

``forest_depths``: per-node depth in a single-parent containment forest; used
by the ``kg_containment_depth`` query over the repo/dir/file edges.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def connected_components(pairs_ds, a_col: str = "a", b_col: str = "b", max_rounds: int = 64, collect_max: int = 2_000_000):
    """(a, b) edge rows -> (node, component) for every node in the graph."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Min

    pairs = pairs_ds.materialize()
    n_pairs = pairs.count()
    if n_pairs == 0:
        sch = pairs.schema()
        t = sch.types[sch.names.index(a_col)] if sch is not None and a_col in sch.names else pa.int64()
        return rd.from_arrow(pa.table({"node": pa.array([], type=t), "component": pa.array([], type=t)}))

    if n_pairs <= collect_max:
        parent: dict = {}

        def find(x):
            r = x
            while parent[r] != r:
                r = parent[r]
            while parent[x] != r:
                parent[x], x = r, parent[x]
            return r

        for b in pairs.iter_batches(batch_size=65536, batch_format="pyarrow"):
            for a, bb in zip(b.column(a_col).to_pylist(), b.column(b_col).to_pylist()):
                parent.setdefault(a, a)
                parent.setdefault(bb, bb)
                ra, rb = find(a), find(bb)
                if ra != rb:
                    lo, hi = (ra, rb) if ra < rb else (rb, ra)
                    parent[hi] = lo
        nodes = sorted(parent)
        comp = [find(x) for x in nodes]
        t = pa.array(nodes).type
        return rd.from_arrow(pa.table({"node": pa.array(nodes, type=t), "component": pa.array(comp, type=t)}))

    # distributed min-label propagation
    def undirected(b: pa.Table) -> pa.Table:
        a, bb = b.column(a_col), b.column(b_col)
        return pa.table(
            {
                "src": pa.concat_arrays([a.combine_chunks(), bb.combine_chunks()]),
                "dst": pa.concat_arrays([bb.combine_chunks(), a.combine_chunks()]),
            }
        )

    from text_to_graph_ray.functions.dedup import join_partitions_for

    edges = pairs.map_batches(undirected, batch_format="pyarrow").materialize()
    labels = (
        edges.map_batches(lambda b: pa.table({"node": b.column("src"), "label": b.column("src")}), batch_format="pyarrow")
        .groupby("node")
        .aggregate(Min("label", alias_name="label"))
        .materialize()
    )
    n_parts = join_partitions_for()
    prev = None
    converged = False
    for _ in range(max_rounds):
        msgs = edges.join(
            labels, join_type="inner", num_partitions=n_parts, on=("src",), right_on=("node",), partition_size_hint=32 << 20
        ).map_batches(lambda b: pa.table({"node": b.column("dst"), "label": b.column("label")}), batch_format="pyarrow")
        labels = msgs.union(labels).groupby("node").aggregate(Min("label", alias_name="label")).materialize()
        # labels fall monotonically under min-propagation: any change alters
        # the (node,label) content, so a fixed content signature means
        # converged. The signature is a 128-bit md5-sum (order-insensitive,
        # per-block partials combined on the driver — #blocks rows only):
        # collision probability ~2^-128, i.e. not a realistic failure mode,
        # and it works for string ids where an exact label-sum does not.
        sig = _labels_signature(labels)
        if sig == prev:
            converged = True
            break
        prev = sig
    if not converged:
        raise RuntimeError(
            f"connected_components did not converge in {max_rounds} rounds — increase max_rounds"
        )
    return labels.map_batches(
        lambda b: pa.table({"node": b.column("node"), "component": b.column("label")}), batch_format="pyarrow"
    )


def _batch_sig(b: pa.Table) -> str:
    """Order-insensitive 128-bit content partial of a (node, label) batch:
    sum of md5(row) as a big int, returned as a decimal string (Arrow batches
    can't carry >64-bit ints)."""
    import hashlib

    tot = 0
    for n, l in zip(b.column("node").to_pylist(), b.column("label").to_pylist()):
        tot += int.from_bytes(hashlib.md5(f"{n}\x00{l}".encode("utf-8")).digest(), "little")
    return str(tot)


def _labels_signature(labels) -> int:
    """Combine per-block partials on the driver (#blocks rows, tiny)."""
    parts = labels.map_batches(
        lambda b: pa.table({"h": pa.array([_batch_sig(b)], type=pa.string())}), batch_format="pyarrow"
    ).take_all()
    return sum(int(r["h"]) for r in parts)


def pagerank(
    edges_ds,
    iterations: int = 3,
    damping: float = 0.85,
    src_col: str = "src",
    dst_col: str = "dst",
    round_dp: int = 9,
    broadcast_max: int = 5_000_000,
    num_buckets: int = 64,
    collect_max: int = 2_000_000,
):
    """Fixed-iteration PageRank over a DISTINCT directed edge set:
    ``r_{t+1}(v) = (1-d)/N + d * sum_{(u,v)} r_t(u)/outdeg(u)`` with uniform
    init ``r_0 = 1/N`` and NO dangling-mass redistribution (rank leaks at
    sinks — the documented semantics, unrolled identically in the SQL
    oracle). Returns (node int64, rank float64) for every node.

    Float discipline: ranks are rounded to ``round_dp`` decimals at EVERY
    iteration boundary on both engine and oracle, so association-order noise
    inside each per-node contribution sum (the only cross-engine
    nondeterminism) cannot accumulate across iterations.

    Guarded three-path design (same convention as connected_components):
    while the DISTINCT edge table is provably tiny (<= ``collect_max`` rows)
    the whole iteration runs vectorized on the driver (numpy bincount — one
    collect, zero per-iteration exchanges); past that, per iteration ONE pass
    over the edge table (contributions pre-combined per batch: at most one
    row per distinct dst per batch reaches the exchange) + one coarse-bucket
    sum keyed on node. Rank attach is the usual guarded small side — a
    ``ray.put`` dict while the node count is provably <= ``broadcast_max``,
    else a distributed hash join on src, in which case ranks stay a Dataset
    end-to-end and the driver never holds a node-sized object. All three
    plans are value-identical (threshold-0 equivalence tests): per-iteration
    rounding absorbs summation-order differences.
    """
    import pandas as pd
    import ray
    import ray.data as rd

    from text_to_graph_ray.functions.agg import bucketed_aggregate, distinct_rows
    from text_to_graph_ray.functions.dedup import join_partitions_for
    from text_to_graph_ray.util import compact_nonempty

    edge_schema = pa.schema([("src", pa.int64()), ("dst", pa.int64())])
    rank_schema = pa.schema([("node", pa.int64()), ("rank", pa.float64())])
    sum_schema = pa.schema([("node", pa.int64()), ("s", pa.float64())])

    def as_edge(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return edge_schema.empty_table()
        return pa.table(
            {
                "src": b.column(src_col).cast(pa.int64()),
                "dst": b.column(dst_col).cast(pa.int64()),
            }
        )

    edges = compact_nonempty(
        distinct_rows(
            edges_ds.map_batches(as_edge, batch_format="pyarrow"), ["src", "dst"], edge_schema, num_buckets=num_buckets
        ).materialize()
    )

    n_edges = edges.count()
    if 0 < n_edges <= collect_max:
        # tiny-graph guard: one driver collect, vectorized power iteration
        parts = [b for b in edges.iter_batches(batch_format="pyarrow")]
        src = np.concatenate([b.column("src").combine_chunks().to_numpy(zero_copy_only=False) for b in parts])
        dst = np.concatenate([b.column("dst").combine_chunks().to_numpy(zero_copy_only=False) for b in parts])
        node_arr = np.unique(np.concatenate([src, dst]))
        N = len(node_arr)
        # node_arr is sorted (np.unique): densify with searchsorted, no dict
        si = np.searchsorted(node_arr, src)
        di = np.searchsorted(node_arr, dst)
        deg_arr = np.bincount(si, minlength=N).astype(np.float64)
        r = np.full(N, round(1.0 / N, round_dp))
        for _ in range(iterations):
            contrib = np.bincount(di, weights=r[si] / deg_arr[si], minlength=N)
            r = np.round((1.0 - damping) / N + damping * contrib, round_dp)
        return rd.from_arrow(
            pa.table({"node": pa.array(node_arr, type=pa.int64()), "rank": pa.array(r, type=pa.float64())})
        )

    def side(col: str):
        def fn(b: pa.Table) -> pa.Table:
            if b.num_rows == 0:
                return pa.schema([("node", pa.int64())]).empty_table()
            return pa.table({"node": b.column(col)})

        return fn

    nodes = compact_nonempty(
        distinct_rows(
            edges.map_batches(side("src"), batch_format="pyarrow").union(
                edges.map_batches(side("dst"), batch_format="pyarrow")
            ),
            ["node"],
            pa.schema([("node", pa.int64())]),
            num_buckets=num_buckets,
        ).materialize()
    )
    n_nodes = nodes.count()
    if n_nodes == 0:
        return rd.from_arrow(rank_schema.empty_table())

    deg = compact_nonempty(
        bucketed_aggregate(
            edges,
            "src",
            {"d": ("dst", "size")},
            out_schema=pa.schema([("src", pa.int64()), ("d", pa.int64())]),
            num_buckets=num_buckets,
            in_schema=edge_schema,
        ).materialize()
    )

    small = n_nodes <= broadcast_max

    def zeros(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return sum_schema.empty_table()
        return pa.table({"node": b.column("node"), "s": pa.array(np.zeros(b.num_rows), type=pa.float64())})

    def finish_ranks(contrib_sums):
        """union with per-node zeros -> one bucketed sum -> teleport + round."""
        full = bucketed_aggregate(
            contrib_sums.union(nodes.map_batches(zeros, batch_format="pyarrow")),
            "node",
            {"s": ("s", "sum")},
            out_schema=sum_schema,
            num_buckets=num_buckets,
            in_schema=sum_schema,
        )

        def tele(b: pa.Table) -> pa.Table:
            if b.num_rows == 0:
                return rank_schema.empty_table()
            s = np.asarray(b.column("s").to_pylist(), dtype=np.float64)
            r = np.round((1.0 - damping) / n_nodes + damping * s, round_dp)
            return pa.table({"node": b.column("node"), "rank": pa.array(r, type=pa.float64())})

        return full.map_batches(tele, batch_format="pyarrow")

    r0 = round(1.0 / n_nodes, round_dp)
    if small:
        # guarded broadcast plan: ranks + outdegs live in one ray.put'd dict
        deg_map = {
            s: d
            for b in deg.iter_batches(batch_format="pyarrow")
            for s, d in zip(b.column("src").to_pylist(), b.column("d").to_pylist())
        }
        node_list = [v for b in nodes.iter_batches(batch_format="pyarrow") for v in b.column("node").to_pylist()]
        ranks = {v: r0 for v in node_list}
        deg_ref = ray.put(deg_map)
        for _ in range(iterations):
            rank_ref = ray.put(ranks)

            def contrib(b: pa.Table) -> pa.Table:
                if b.num_rows == 0:
                    return sum_schema.empty_table()
                rm, dm = ray.get(rank_ref), ray.get(deg_ref)
                src = b.column("src").to_pylist()
                dst = np.asarray(b.column("dst").to_pylist(), dtype=np.int64)
                w = np.asarray([rm[u] / dm[u] for u in src], dtype=np.float64)
                df = pd.DataFrame({"node": dst, "s": w}).groupby("node", as_index=False)["s"].sum()
                return pa.table({"node": pa.array(df["node"], type=pa.int64()), "s": pa.array(df["s"], type=pa.float64())})

            # ranks are already driver-resident here, so skip finish_ranks's
            # zeros-union exchange: ONE bucketed sum over the contributions
            # (<= node-sized by the per-batch combiner), missing nodes get the
            # bare teleport term (s = 0) when the dict is rebuilt — identical
            # arithmetic to tele(), one exchange per iteration instead of two
            contribs = bucketed_aggregate(
                edges.map_batches(contrib, batch_format="pyarrow"),
                "node",
                {"s": ("s", "sum")},
                out_schema=sum_schema,
                num_buckets=num_buckets,
                in_schema=sum_schema,
            )
            s_map = {
                n: s
                for b in contribs.iter_batches(batch_format="pyarrow")
                for n, s in zip(b.column("node").to_pylist(), b.column("s").to_pylist())
            }
            # same np.round kernel as tele() so both plans round identically
            s_arr = np.asarray([s_map.get(n, 0.0) for n in node_list], dtype=np.float64)
            r_arr = np.round((1.0 - damping) / n_nodes + damping * s_arr, round_dp)
            ranks = dict(zip(node_list, r_arr.tolist()))
        out = rd.from_arrow(
            pa.table(
                {
                    "node": pa.array(sorted(ranks), type=pa.int64()),
                    "rank": pa.array([ranks[k] for k in sorted(ranks)], type=pa.float64()),
                }
            )
        )
        return out

    # distributed plan: ranks stay a Dataset; attach via hash join on src
    n_parts = join_partitions_for()
    edeg = compact_nonempty(
        edges.join(
            deg, join_type="inner", num_partitions=n_parts, on=("src",), partition_size_hint=32 << 20
        ).materialize()
    )
    ranks_ds = nodes.map_batches(
        lambda b: pa.table({"node": b.column("node"), "rank": pa.array(np.full(b.num_rows, r0), type=pa.float64())})
        if b.num_rows
        else rank_schema.empty_table(),
        batch_format="pyarrow",
    ).materialize()
    ranks_ds = compact_nonempty(ranks_ds)
    for _ in range(iterations):
        j = edeg.join(
            ranks_ds, join_type="inner", num_partitions=n_parts, on=("src",), right_on=("node",),
            partition_size_hint=32 << 20,
        )

        def contrib_j(b: pa.Table) -> pa.Table:
            if b.num_rows == 0:
                return sum_schema.empty_table()
            w = np.asarray(b.column("rank").to_pylist(), dtype=np.float64) / np.asarray(
                b.column("d").to_pylist(), dtype=np.float64
            )
            df = pd.DataFrame({"node": b.column("dst").to_pylist(), "s": w}).groupby("node", as_index=False)["s"].sum()
            return pa.table({"node": pa.array(df["node"], type=pa.int64()), "s": pa.array(df["s"], type=pa.float64())})

        ranks_ds = compact_nonempty(finish_ranks(j.map_batches(contrib_j, batch_format="pyarrow")).materialize())
    return ranks_ds.sort("node")


def forest_depths(edges_ds, src_col: str = "src", dst_col: str = "dst",
                  max_depth: int = 64, node_type: pa.DataType = None):
    """Per-node depth in a containment FOREST (every child has exactly ONE
    parent; acyclic — the KG repo/dir/file containment shape): roots sit at
    depth 0, each child one below its parent. Returns (node, depth) for
    every node in the forest, sorted by node.

    Scale shape: root discovery is DISTRIBUTED — the exact distinct of the
    parent column anti-filtered against the child key set via the guarded
    filter (``joins.filter_by_keys``: child-set broadcast below its row
    guard, distributed anti hash join above) — at 10^12-file scale roots
    are repo-count-sized and never become a driver list. Each round then costs
    ONE streamed guarded semi pass over the (never-driver-materialized)
    edge table plus an exact distributed DISTINCT of the next level; the
    single-parent contract means a node is discovered exactly once, so no
    visited-set anti pass is needed. A frontier that survives past
    ``max_depth`` raises (cycle or over-deep tree) instead of silently
    truncating the depth table."""
    import pyarrow.compute as pc

    from text_to_graph_ray.functions.agg import distinct_rows
    from text_to_graph_ray.functions.joins import filter_by_keys
    from text_to_graph_ray.util import sort_coalesced

    node_type = node_type or pa.int64()
    node_schema = pa.schema([("node", node_type)])
    out_schema = pa.schema([("node", node_type), ("depth", pa.int64())])

    def project(col):
        def take(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return node_schema.empty_table()
            return pa.table({"node": pc.cast(t.column(col), node_type)}, schema=node_schema)

        return take

    def with_depth(nodes, d: int):
        def add(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return out_schema.empty_table()
            return pa.table(
                {"node": t.column("node"), "depth": pa.array([d] * t.num_rows, type=pa.int64())},
                schema=out_schema,
            )

        return nodes.map_batches(add, batch_format="pyarrow")

    parents = distinct_rows(
        edges_ds.map_batches(project(src_col), batch_format="pyarrow"), "node", node_schema
    )
    frontier = filter_by_keys(parents, edges_ds, key="node", right_key=dst_col,
                              mode="anti").materialize()
    out_parts = [with_depth(frontier, 0).materialize()]
    # one probe past max_depth: a level AT max_depth is a complete answer,
    # only children below it mean a cycle or an over-deep tree
    for d in range(1, max_depth + 2):
        hit = filter_by_keys(edges_ds, frontier, key=src_col, right_key="node", mode="semi")
        frontier = distinct_rows(
            hit.map_batches(project(dst_col), batch_format="pyarrow"), "node", node_schema
        ).materialize()
        if frontier.count() == 0:
            break
        if d > max_depth:
            raise ValueError(
                f"forest_depths: frontier non-empty after max_depth={max_depth} rounds "
                "— cycle in the 'forest' or raise max_depth"
            )
        out_parts.append(with_depth(frontier, d).materialize())

    out = out_parts[0]
    for p in out_parts[1:]:
        out = out.union(p)
    return sort_coalesced(out, "node")


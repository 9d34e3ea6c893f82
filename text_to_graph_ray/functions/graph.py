"""Generic graph operators over an edge Dataset.

``connected_components``: weakly-connected components with the same guarded
two-path design as every small-side assumption in this repo — exact driver
union-find while the edge table is comfortably small (<= collect_max rows,
broadcast only the result), else distributed min-label propagation (one hash
join + groupby-min per round, label-sum convergence, loud failure if a
component's diameter outruns max_rounds). Works for integer or string node
ids (component representative = the min id under the type's natural order).

Used by ``dedup.near_dup_survivors`` (doc-id pair graph) and the
``kg_components`` driver query (entity-key graph).
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
    import numpy as np
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


def _center_pair_arrays(s: np.ndarray, t: np.ndarray):
    """All id-ordered pairs of each center's neighbor list, fully vectorized
    (the repeat/arange combination trick — no Python loop over centers):
    given (center, neighbor) rows, returns (center, lo, hi) numpy arrays
    with lo < hi enumerated once per unordered pair, or None if no center
    has >= 2 neighbors. Shared by triangle wedge generation and
    common-neighbor counting."""
    order = np.lexsort((t, s))
    s, t = s[order], t[order]
    n = len(s)
    if n == 0:
        return None
    new = np.empty(n, dtype=bool)
    new[0] = True
    new[1:] = s[1:] != s[:-1]
    starts = np.flatnonzero(new)
    sizes = np.diff(np.append(starts, n))
    local = np.arange(n) - np.repeat(starts, sizes)
    fc = np.repeat(sizes, sizes) - 1 - local  # pairs with this row as 'lo'
    total = int(fc.sum())
    if total == 0:
        return None
    i = np.repeat(np.arange(n), fc)
    j = np.arange(total) - np.repeat(np.cumsum(fc) - fc, fc) + i + 1
    return s[i], t[i], t[j]


def triangle_counts(edges_ds, src_col: str = "src", dst_col: str = "dst",
                    num_buckets: int = 64, deg_broadcast_max: int = 5_000_000,
                    return_degrees: bool = False):
    """Per-node triangle counts over an undirected graph, fully distributed.

    Plan (degree-ordered compact-forward wedge enumeration): canonicalize
    each edge to (a, b) with a < b (self-loops dropped) and DISTINCT it
    (``agg.distinct_rows`` — combiner-first), count node degrees (one
    bucketed exchange), then ORIENT each edge from its lower-(degree, id)
    endpoint to its higher one. Wedges are each source's out-neighbor pairs
    (kept once per unordered pair, id-ordered), enumerated vectorized
    inside ONE source-keyed bucket exchange of the oriented edges; each
    triangle {x, y, z} is produced exactly once, from its min-(deg, id)
    corner. While edge ids fit 31 bits and the edge count fits the guard,
    the closing-edge set packs into one sorted uint64 array ((a<<32)|b),
    broadcast once, and each wedge bucket filters its pairs in-stream and
    PRE-COUNTS its triangle corners — only (node, cnt) partials cross the
    final exchange, never wedge or triangle rows (a dense graph with T
    triangles ships O(nodes) partial rows instead of 3T). Past the guard
    the closing probe falls back to a side-tagged bucketed semi join on
    (lo, hi), still corner-counting per bucket before the final sum.

    Why degree orientation: wedge rows are Σ_v outdeg(v)², and orienting by
    degree bounds every outdeg by O(√m) (arboricity-style bound), so a hot
    celebrity node h costs O(m) wedges instead of the deg(h)² ≈ m² an
    id-oriented plan pays. Cost: one extra node-sized degree exchange, with
    the degree map broadcast via ``ray.put`` below ``deg_broadcast_max``
    nodes (sorted-array searchsorted lookup per batch) and two distributed
    hash joins above it — both plans value-identical (equivalence test).
    The per-node output is orientation-invariant, so results match the
    previous id-oriented plan bit-for-bit.

    Returns (node, triangles) sorted by node, nodes with zero triangles
    omitted (SQL GROUP BY semantics).
    """
    import pyarrow.compute as pc
    import ray

    from text_to_graph_ray.functions.agg import bucketed_aggregate, distinct_rows
    from text_to_graph_ray.functions.dedup import join_partitions_for

    edge_schema = pa.schema([("a", pa.int64()), ("b", pa.int64())])

    def canon(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return edge_schema.empty_table()
        s, d = pc.cast(t.column(src_col), pa.int64()), pc.cast(t.column(dst_col), pa.int64())
        lo, hi = pc.min_element_wise(s, d), pc.max_element_wise(s, d)
        out = pa.table({"a": lo, "b": hi})
        return out.filter(pc.not_equal(out.column("a"), out.column("b")))

    edges = distinct_rows(
        edges_ds.map_batches(canon, batch_format="pyarrow"), ["a", "b"], edge_schema
    ).materialize()

    # node degrees over the deduped undirected edges: one bucketed exchange
    deg_schema = pa.schema([("node", pa.int64()), ("d", pa.int64())])

    def endpoints(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.schema([("node", pa.int64())]).empty_table()
        return pa.table({"node": pa.concat_arrays([
            t.column("a").combine_chunks(), t.column("b").combine_chunks()
        ])})

    deg = bucketed_aggregate(
        edges.map_batches(endpoints, batch_format="pyarrow"), "node", {"d": ("node", "size")},
        out_schema=deg_schema, num_buckets=num_buckets,
        in_schema=pa.schema([("node", pa.int64())]),
    ).materialize()
    n_nodes = deg.count()

    ori_schema = pa.schema([("s", pa.int64()), ("t", pa.int64())])

    def orient_arrays(a: np.ndarray, b: np.ndarray, da: np.ndarray, db: np.ndarray) -> pa.Table:
        # a < b by id already, so the (deg, id) tie-break is just da <= db
        fwd = da <= db
        return pa.table({
            "s": pa.array(np.where(fwd, a, b), type=pa.int64()),
            "t": pa.array(np.where(fwd, b, a), type=pa.int64()),
        }, schema=ori_schema)

    if n_nodes <= deg_broadcast_max:
        blocks = [t for t in ray.get(deg.to_arrow_refs()) if t.num_rows]
        if blocks:
            dt = pa.concat_tables(blocks)
            nodes_np = np.asarray(dt.column("node").to_pylist(), dtype=np.int64)
            degs_np = np.asarray(dt.column("d").to_pylist(), dtype=np.int64)
            order = np.argsort(nodes_np)
            deg_ref = ray.put((nodes_np[order], degs_np[order]))
        else:
            deg_ref = ray.put((np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)))

        def orient_bcast(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return ori_schema.empty_table()
            nodes_s, degs_s = ray.get(deg_ref)
            a = np.asarray(t.column("a").to_pylist(), dtype=np.int64)
            b = np.asarray(t.column("b").to_pylist(), dtype=np.int64)
            da = degs_s[np.searchsorted(nodes_s, a)]
            db = degs_s[np.searchsorted(nodes_s, b)]
            return orient_arrays(a, b, da, db)

        oriented = edges.map_batches(orient_bcast, batch_format="pyarrow")
    else:
        # distributed fallback: attach deg(a) then deg(b) via two hash joins
        deg_b = deg.map_batches(
            lambda t: pa.table({"node_b": t.column("node"), "db": t.column("d")}) if t.num_rows
            else pa.schema([("node_b", pa.int64()), ("db", pa.int64())]).empty_table(),
            batch_format="pyarrow",
        )
        j = edges.join(deg, join_type="inner", num_partitions=join_partitions_for(),
                       on=("a",), right_on=("node",), partition_size_hint=16 << 20)
        j = j.join(deg_b, join_type="inner", num_partitions=join_partitions_for(),
                   on=("b",), right_on=("node_b",), partition_size_hint=16 << 20)

        def orient_joined(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return ori_schema.empty_table()
            a = np.asarray(t.column("a").to_pylist(), dtype=np.int64)
            b = np.asarray(t.column("b").to_pylist(), dtype=np.int64)
            da = np.asarray(t.column("d").to_pylist(), dtype=np.int64)
            db = np.asarray(t.column("db").to_pylist(), dtype=np.int64)
            return orient_arrays(a, b, da, db)

        oriented = j.map_batches(orient_joined, batch_format="pyarrow")

    from text_to_graph_ray.functions.agg import bucket_exchange, with_bucket

    # wedge generation: bucket oriented edges by SOURCE so each low-degree
    # node's whole out-adjacency lands in one group, then enumerate its
    # out-neighbor pairs fully vectorized (the repeat/arange combination
    # trick — no Python loop over sources). id-sorting within each group
    # makes every emitted pair (lo, hi) id-ordered for the closing probe.
    def wedge_arrays(df):
        """(s, lo, hi) numpy arrays of this bucket's wedges, or None."""
        return _center_pair_arrays(
            df["s"].to_numpy(dtype=np.int64), df["t"].to_numpy(dtype=np.int64)
        )

    cnt_schema = pa.schema([("node", pa.int64()), ("cnt", pa.int64())])

    def count_partial(nodes: np.ndarray) -> pa.Table:
        uniq, cnt = np.unique(nodes, return_counts=True)
        return pa.table({"node": pa.array(uniq, type=pa.int64()),
                         "cnt": pa.array(cnt.astype(np.int64), type=pa.int64())}, schema=cnt_schema)

    # closing-edge membership: wedge pairs are id-ordered, so they probe
    # the id-canonical edge table directly — orientation does not matter.
    # While edge ids fit 31 bits and the edge count fits the guard, the
    # whole closing set packs into ONE sorted uint64 array ((a<<32)|b),
    # broadcast once; each wedge bucket then filters its pairs in-stream
    # AND pre-counts its triangle corners, so only (node, cnt) partials —
    # never wedge or triangle rows — cross the remaining exchange. A dense
    # graph with T triangles ships O(nodes-per-bucket) rows instead of 3T.
    n_edges = edges.count()
    max_id = None
    if n_edges and n_edges <= deg_broadcast_max:
        mx = [pc.max(t.column("b")).as_py() for t in ray.get(edges.to_arrow_refs()) if t.num_rows]
        max_id = max(mx) if mx else None
    mn_ok = True
    if max_id is not None:
        mns = [pc.min(t.column("a")).as_py() for t in ray.get(edges.to_arrow_refs()) if t.num_rows]
        mn_ok = bool(mns) and min(mns) >= 0
    packable = max_id is not None and max_id < 2**31 and mn_ok

    if packable:
        eb = [t for t in ray.get(edges.to_arrow_refs()) if t.num_rows]
        et = pa.concat_tables(eb)
        ea = et.column("a").to_numpy(zero_copy_only=False).astype(np.uint64)
        ebn = et.column("b").to_numpy(zero_copy_only=False).astype(np.uint64)
        edge_ref = ray.put(np.sort((ea << np.uint64(32)) | ebn))

        def wedges_count_bucket(df) -> pa.Table:
            if len(df) == 0:
                return cnt_schema.empty_table()
            w = wedge_arrays(df)
            if w is None:
                return cnt_schema.empty_table()
            s_i, lo, hi = w
            keys = (lo.astype(np.uint64) << np.uint64(32)) | hi.astype(np.uint64)
            es = ray.get(edge_ref)
            pos = np.minimum(np.searchsorted(es, keys), len(es) - 1)
            hit = es[pos] == keys
            if not hit.any():
                return cnt_schema.empty_table()
            return count_partial(np.concatenate([s_i[hit], lo[hit], hi[hit]]))

        partials = bucket_exchange(
            with_bucket(oriented, "s", num_buckets, in_schema=ori_schema),
            wedges_count_bucket, cnt_schema, num_buckets,
        )
    else:
        # fallback: materialize wedge rows, close via a side-tagged bucketed
        # semi join on (lo, hi), pre-count corners per output batch. (Our own
        # exchange, not Dataset.join: Ray's hash-shuffle join aggregator
        # builds a zero-column table for a partition that received no left
        # shard and then fails the key lookup on tiny inputs.)
        wedge_schema = pa.schema([("s", pa.int64()), ("lo", pa.int64()), ("hi", pa.int64())])

        def wedges_per_bucket(df) -> pa.Table:
            if len(df) == 0:
                return wedge_schema.empty_table()
            w = wedge_arrays(df)
            if w is None:
                return wedge_schema.empty_table()
            s_i, lo, hi = w
            return pa.table({
                "s": pa.array(s_i, type=pa.int64()),
                "lo": pa.array(lo, type=pa.int64()),
                "hi": pa.array(hi, type=pa.int64()),
            }, schema=wedge_schema)

        wedges = bucket_exchange(
            with_bucket(oriented, "s", num_buckets, in_schema=ori_schema),
            wedges_per_bucket, wedge_schema, num_buckets,
        )

        tag_schema = pa.schema([("lo", pa.int64()), ("hi", pa.int64()), ("s", pa.int64()), ("side", pa.int64())])

        def tag(side: int, lo_col: str, hi_col: str, s_col: str | None):
            def f(t: pa.Table) -> pa.Table:
                if t.num_rows == 0:
                    return tag_schema.empty_table()
                svals = t.column(s_col) if s_col else pa.nulls(t.num_rows, type=pa.int64())
                return pa.table({
                    "lo": t.column(lo_col), "hi": t.column(hi_col), "s": svals,
                    "side": pa.array(np.full(t.num_rows, side), type=pa.int64()),
                }, schema=tag_schema)

            return f

        unioned = edges.map_batches(tag(0, "a", "b", None), batch_format="pyarrow").union(
            wedges.map_batches(tag(1, "lo", "hi", "s"), batch_format="pyarrow")
        )

        def close_bucket(df) -> pa.Table:
            if len(df) == 0:
                return cnt_schema.empty_table()
            e = df[df["side"] == 0]
            w = df[df["side"] == 1]
            if len(e) == 0 or len(w) == 0:
                return cnt_schema.empty_table()
            m = w.merge(e[["lo", "hi"]], on=["lo", "hi"], how="inner")
            if len(m) == 0:
                return cnt_schema.empty_table()
            return count_partial(np.concatenate([
                m["s"].to_numpy(dtype=np.int64),
                m["lo"].to_numpy(dtype=np.int64),
                m["hi"].to_numpy(dtype=np.int64),
            ]))

        partials = bucket_exchange(
            with_bucket(unioned, ["lo", "hi"], num_buckets, in_schema=tag_schema),
            close_bucket, cnt_schema, num_buckets,
        )

    out_schema = pa.schema([("node", pa.int64()), ("triangles", pa.int64())])
    counts = bucketed_aggregate(partials, "node", {"triangles": ("cnt", "sum")},
                                out_schema=out_schema, num_buckets=num_buckets,
                                in_schema=cnt_schema)
    from text_to_graph_ray.util import sort_coalesced

    out = sort_coalesced(counts, "node")
    if return_degrees:
        return out, deg  # deg already materialized above; zero extra passes
    return out


def bfs_depths(edges_ds, seeds, max_depth: int = 3, src_col: str = "src", dst_col: str = "dst",
               node_type: pa.DataType = None):
    """Directed breadth-first MIN-DEPTH from a seed set, bounded to
    ``max_depth`` rounds: returns (node, depth) for every node reachable in
    <= max_depth hops (seeds at depth 0, first-discovery depth thereafter —
    the recursive-CTE ``min(depth)`` semantics).

    Scale shape per round: ONE streamed pass over the (never-materialized-
    on-the-driver) edge table — a guarded semi filter keeps edges whose src
    is in the frontier (``joins.filter_by_keys``: frontier broadcast below
    its row guard, distributed semi hash join above), then an exact
    distributed DISTINCT of the dst nodes and a guarded anti filter against
    the visited set. Frontier/visited are node sets — vocabulary-sized, not
    edge-sized — so the driver never holds more than counters; at 100 TB of
    edges each round costs one scan plus node-set-sized exchanges, and the
    loop stops early when a frontier comes back empty.

    ``seeds`` is a small Python list by contract (query entry points)."""
    import ray.data as rd

    from text_to_graph_ray.functions.agg import distinct_rows
    from text_to_graph_ray.functions.joins import filter_by_keys

    node_type = node_type or pa.int64()
    node_schema = pa.schema([("node", node_type)])
    out_schema = pa.schema([("node", node_type), ("depth", pa.int64())])

    def with_depth(nodes, d: int):
        def add(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return out_schema.empty_table()
            return pa.table(
                {"node": t.column("node"), "depth": pa.array([d] * t.num_rows, type=pa.int64())},
                schema=out_schema,
            )

        return nodes.map_batches(add, batch_format="pyarrow")

    frontier = rd.from_arrow(pa.table({"node": pa.array(list(seeds), type=node_type)}, schema=node_schema))
    visited = frontier  # node sets only; depths tracked per-round
    out_parts = [with_depth(frontier, 0).materialize()]
    for d in range(1, max_depth + 1):
        hit = filter_by_keys(edges_ds, frontier, key=src_col, right_key="node", mode="semi")
        dsts = hit.map_batches(
            lambda t: pa.table({"node": t.column(dst_col)}, schema=node_schema)
            if t.num_rows else node_schema.empty_table(),
            batch_format="pyarrow",
        )
        reached = distinct_rows(dsts, "node", node_schema)
        frontier = filter_by_keys(reached, visited, key="node", mode="anti").materialize()
        if frontier.count() == 0:
            break
        visited = visited.union(frontier).materialize()
        out_parts.append(with_depth(frontier, d).materialize())

    from text_to_graph_ray.util import sort_coalesced

    out = out_parts[0]
    for p in out_parts[1:]:
        out = out.union(p)
    return sort_coalesced(out, "node")


def sssp_bounded(edges_ds, seeds, max_hops: int = 3, src_col: str = "src", dst_col: str = "dst",
                 w_col: str = "w", num_buckets: int = 64, dist_broadcast_max: int = 2_000_000):
    """Single-source(-set) shortest path with INTEGER edge weights, bounded
    to ``max_hops`` relaxation rounds (Bellman-Ford): returns (node, dist)
    where dist is the minimum total weight over paths of <= max_hops edges
    — exactly the recursive-CTE ``min(d)`` semantics, and exact arithmetic
    (int64 adds, no float discipline needed).

    Scale shape per round: ONE streamed pass over the edge table. While the
    dist table fits ``dist_broadcast_max`` it is broadcast once via
    ``ray.put`` (sorted arrays, per-batch lookup is a vectorized
    searchsorted); above the guard the candidates come from a distributed
    hash join instead (the same guarded-small-side discipline as
    kg.DEFS_BROADCAST_MAX — both plans are value-identical, test forces
    the threshold to 0). Candidates meet the
    previous dists in one coarse-bucket min-merge; convergence before
    max_hops stops the loop early via distributed (count, sum) invariants —
    the driver only ever holds counters."""
    import pandas as pd
    import ray
    import ray.data as rd

    from text_to_graph_ray.functions.agg import BUCKET_COL, bucket_exchange, with_bucket
    from text_to_graph_ray.functions.joins import filter_by_keys
    from text_to_graph_ray.util import sort_coalesced

    dist_schema = pa.schema([("node", pa.int64()), ("dist", pa.int64())])

    def min_merge(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return dist_schema.empty_table()
        g = df.drop(columns=[BUCKET_COL]).groupby("node", as_index=False, sort=False)["dist"].min()
        return pa.table({"node": pa.array(g["node"], type=pa.int64()), "dist": pa.array(g["dist"], type=pa.int64())},
                        schema=dist_schema)

    def candidates_broadcast(dist):
        blocks = [b for b in ray.get(dist.to_arrow_refs()) if b.num_rows and "node" in b.schema.names]
        dm = pa.concat_tables(blocks) if blocks else dist_schema.empty_table()
        nodes = np.asarray(dm.column("node").to_pylist(), dtype=np.int64)
        order = np.argsort(nodes)
        ref = ray.put((nodes[order], np.asarray(dm.column("dist").to_pylist(), dtype=np.int64)[order]))
        hit = filter_by_keys(edges_ds, dist, key=src_col, right_key="node", mode="semi")

        def cand(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return dist_schema.empty_table()
            snodes, sdists = ray.get(ref)
            src = np.asarray(t.column(src_col).to_pylist(), dtype=np.int64)
            w = np.asarray(t.column(w_col).to_pylist(), dtype=np.int64)
            base = sdists[np.searchsorted(snodes, src)]  # all present: semi-filtered
            return pa.table(
                {"node": t.column(dst_col), "dist": pa.array(base + w, type=pa.int64())}, schema=dist_schema
            )

        return hit.map_batches(cand, batch_format="pyarrow")

    def candidates_join(dist):
        from text_to_graph_ray.functions.dedup import join_partitions_for

        joined = edges_ds.join(
            dist, join_type="inner", num_partitions=join_partitions_for(),
            on=(src_col,), right_on=("node",), partition_size_hint=16 << 20,
        )

        def cand(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return dist_schema.empty_table()
            w = np.asarray(t.column(w_col).to_pylist(), dtype=np.int64)
            base = np.asarray(t.column("dist").to_pylist(), dtype=np.int64)
            return pa.table(
                {"node": t.column(dst_col), "dist": pa.array(base + w, type=pa.int64())}, schema=dist_schema
            )

        return joined.map_batches(cand, batch_format="pyarrow")

    dist = rd.from_arrow(
        pa.table({"node": pa.array(list(seeds), type=pa.int64()),
                  "dist": pa.array([0] * len(seeds), type=pa.int64())}, schema=dist_schema)
    ).materialize()

    for _ in range(max_hops):
        n_dist = dist.count()
        cands = (candidates_broadcast if n_dist <= dist_broadcast_max else candidates_join)(dist)
        merged = bucket_exchange(
            with_bucket(dist.union(cands), "node", num_buckets, in_schema=dist_schema),
            min_merge, dist_schema, num_buckets,
        ).materialize()
        # distributed convergence invariants: dists only decrease, nodes only
        # appear — (count, sum) unchanged iff nothing relaxed this round
        changed = (merged.count() != n_dist) or ((merged.sum("dist") or 0) != (dist.sum("dist") or 0))
        dist = merged
        if not changed:
            break

    return sort_coalesced(dist, "node")


def kcore_bounded(edges_ds, k: int = 8, max_rounds: int = 4, src_col: str = "src",
                  dst_col: str = "dst", num_buckets: int = 64):
    """Bounded k-core peeling over an undirected graph: ``max_rounds``
    iterations of "drop every node with degree < k, then drop edges touching
    a dropped node" — the standard graph-sparsification / community-seed
    primitive. Exactly ``max_rounds`` peels are applied (the bfs_depths
    bounded-rounds contract — an unrolled-SQL-expressible semantics); if the
    peel reaches a FIXPOINT earlier (no edge removed in a round) the loop
    stops, which is result-identical because further peels are no-ops. At
    fixpoint the output is the true k-core.

    Scale shape per round: one streamed endpoint fan-out + ONE coarse-bucket
    degree count (node-set-sized output), then two guarded semi filters of
    the edge table against the alive node set (``joins.filter_by_keys``:
    broadcast under its row guard, distributed semi hash join above).
    Convergence is checked with distributed counts — the driver holds
    counters only, never nodes or edges.

    Returns (node, deg) over the surviving edge set, sorted by node; an
    empty Dataset when the whole graph peels away.
    """
    import pyarrow.compute as pc

    from text_to_graph_ray.functions.agg import bucketed_aggregate, distinct_rows
    from text_to_graph_ray.functions.joins import filter_by_all_keys
    from text_to_graph_ray.util import compact_nonempty, sort_coalesced

    edge_schema = pa.schema([("a", pa.int64()), ("b", pa.int64())])
    node_schema = pa.schema([("node", pa.int64())])
    deg_schema = pa.schema([("node", pa.int64()), ("deg", pa.int64())])

    def canon(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return edge_schema.empty_table()
        s, d = pc.cast(t.column(src_col), pa.int64()), pc.cast(t.column(dst_col), pa.int64())
        out = pa.table({"a": pc.min_element_wise(s, d), "b": pc.max_element_wise(s, d)})
        return out.filter(pc.not_equal(out.column("a"), out.column("b")))

    def endpoints(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return node_schema.empty_table()
        return pa.table({"node": pa.concat_arrays(
            [t.column("a").combine_chunks(), t.column("b").combine_chunks()]
        )}, schema=node_schema)

    def degrees(edges):
        return bucketed_aggregate(
            edges.map_batches(endpoints, batch_format="pyarrow"), "node",
            {"deg": ("node", "size")}, out_schema=deg_schema, num_buckets=num_buckets,
            in_schema=node_schema,
        )

    edges = compact_nonempty(
        distinct_rows(edges_ds.map_batches(canon, batch_format="pyarrow"), ["a", "b"], edge_schema).materialize()
    )
    n_edges = edges.count()
    for _ in range(max_rounds):
        if n_edges == 0:
            break
        def alive_only(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return node_schema.empty_table()
            keep = t.filter(pc.greater_equal(t.column("deg"), k))
            return pa.table({"node": keep.column("node")}, schema=node_schema)

        alive = degrees(edges).map_batches(alive_only, batch_format="pyarrow")
        # both endpoints must be alive: ONE streamed pass with two AND-ed
        # is_in masks under the broadcast guard (chained per-column semi
        # filters would scan the edge table twice per round)
        pruned = filter_by_all_keys(edges, alive, keys=("a", "b"), right_key="node", mode="semi").materialize()
        pruned = compact_nonempty(pruned)
        n_pruned = pruned.count()
        if n_pruned == n_edges:  # fixpoint: further peels are no-ops
            break
        edges, n_edges = pruned, n_pruned

    if n_edges == 0:
        import ray.data as rd

        return rd.from_arrow(deg_schema.empty_table())
    return sort_coalesced(degrees(edges), "node")


def common_neighbor_topk(edges_ds, k: int = 100, min_common: int = 2,
                         src_col: str = "src", dst_col: str = "dst",
                         num_buckets: int = 64, edge_broadcast_max: int = 5_000_000,
                         hub_degree_cap: int | None = None, stats: dict | None = None,
                         rank_by: str = "cn", include_ra: bool = False):
    """Link prediction by common-neighbor count: the top-k NON-adjacent node
    pairs (u, v, cn) ranked by (cn DESC, u, v) — the classic
    missing-edge / entity-resolution candidate generator over the KG.

    Plan: canonical DISTINCT undirected edges, symmetrized so every center's
    full neighbor list lands in ONE bucket task of a center-keyed exchange
    (``_center_pair_arrays`` enumerates id-ordered neighbor pairs
    vectorized); each bucket PRE-COUNTS its (lo, hi) pairs, so the
    pair-keyed exchange carries combiner partials, never raw wedges. After
    the (lo, hi) sum, adjacency is removed via the packed sorted-uint64
    edge-set broadcast (ids < 2^31 and |E| <= edge_broadcast_max) or a
    side-tagged bucketed anti-join past the guard — both value-identical
    (equivalence-tested). Top-k trims per batch BEFORE the single-task
    final, so the driver-side result is answer-sized.

    Scale note: unlike triangles, common-neighbor counting cannot be
    degree-oriented — every center adjacent to a pair must see it, so the
    transient per-bucket wedge volume is Σ deg(center)² over that bucket's
    centers. ``hub_degree_cap`` SKIPS centers above the cap (their pairs
    lose those hubs' votes — the Adamic-Adar observation that hub
    co-neighbors carry little signal anyway) and surfaces the skipped count
    loudly (stats["cn_hubs_skipped"] + driver WARNING); default None is
    exact.

    ``include_ra=True`` additionally scores each pair with the
    Resource-Allocation index (Zhou et al. 2009): Σ over common neighbors
    of 1/deg(center) — hub centers contribute less. The per-center weight
    is quantized EXACTLY as ``10^9 // deg`` (integer division — unlike
    Adamic-Adar's 1/log2(deg), there is no libm term to drift a ulp), the
    per-pair sum is integer, and ``ra = q / 1e9`` rounds to 6 dp only at
    the output, so engine and SQL oracle are bit-identical. A center's
    degree is its full undirected degree, computed locally because ALL of
    a center's symmetrized rows land in its bucket (no extra exchange).
    ``rank_by``: "cn" (count) or "ra"."""
    import pyarrow.compute as pc
    import ray

    from text_to_graph_ray.functions.agg import (
        BUCKET_COL, bucket_exchange, bucketed_aggregate, distinct_rows, with_bucket,
    )
    from text_to_graph_ray.util import compact_nonempty

    edge_schema = pa.schema([("a", pa.int64()), ("b", pa.int64())])

    def canon(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return edge_schema.empty_table()
        s, d = pc.cast(t.column(src_col), pa.int64()), pc.cast(t.column(dst_col), pa.int64())
        lo, hi = pc.min_element_wise(s, d), pc.max_element_wise(s, d)
        out = pa.table({"a": lo, "b": hi})
        return out.filter(pc.not_equal(out.column("a"), out.column("b")))

    edges = distinct_rows(
        edges_ds.map_batches(canon, batch_format="pyarrow"), ["a", "b"], edge_schema
    ).materialize()
    n_edges = edges.count()
    out_fields = [("u", pa.int64()), ("v", pa.int64()), ("cn", pa.int64())]
    if include_ra:
        # the appended score column carries the rank metric: ra for the RA
        # ranking, jaccard for the Jaccard ranking (both = q / 1e9)
        out_fields.append(("jaccard" if rank_by == "jaccard" else "ra", pa.float64()))
    out_schema = pa.schema(out_fields)
    if n_edges == 0:
        import ray.data as rd

        return rd.from_arrow(out_schema.empty_table())

    sym_schema = pa.schema([("s", pa.int64()), ("t", pa.int64())])

    def symmetrize(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return sym_schema.empty_table()
        a, b = t.column("a").combine_chunks(), t.column("b").combine_chunks()
        return pa.table({"s": pa.concat_arrays([a, b]), "t": pa.concat_arrays([b, a])},
                        schema=sym_schema)

    part_schema = pa.schema([("lo", pa.int64()), ("hi", pa.int64()), ("n", pa.int64()), ("q", pa.int64())])

    def pair_partials(df) -> pa.Table:
        if len(df) == 0:
            return part_schema.empty_table()
        s = df["s"].to_numpy(dtype=np.int64)
        t = df["t"].to_numpy(dtype=np.int64)
        skipped = 0
        # full undirected degree of every center in this bucket (all of a
        # center's symmetrized rows land here), BEFORE any hub filtering —
        # the RA weight 10^9 // deg is exact integer arithmetic
        centers, counts = np.unique(s, return_counts=True)
        q_center = np.int64(1_000_000_000) // counts.astype(np.int64)
        if hub_degree_cap is not None:
            hubs = centers[counts > hub_degree_cap]
            if len(hubs):
                skipped = len(hubs)
                keep = ~np.isin(s, hubs)
                s, t = s[keep], t[keep]
        w = _center_pair_arrays(s, t) if len(s) else None
        if w is None:
            lo_u = hi_u = np.empty(0, dtype=np.int64)
            cnts = qs = np.empty(0, dtype=np.int64)
        else:
            wc, lo, hi = w
            qw = q_center[np.searchsorted(centers, wc)].astype(np.float64)
            key = (lo.astype(np.uint64) << np.uint64(32)) | hi.astype(np.uint64) if lo.size and int(hi.max()) < 2**31 and int(lo.min()) >= 0 else None
            if key is not None:
                uk, inv, cnts = np.unique(key, return_inverse=True, return_counts=True)
                lo_u = (uk >> np.uint64(32)).astype(np.int64)
                hi_u = (uk & np.uint64(0xFFFFFFFF)).astype(np.int64)
                # weights <= 1e9 and wedge multiplicities bounded, so the
                # float64 bincount sums are exact (< 2^53)
                qs = np.bincount(inv, weights=qw, minlength=len(uk)).astype(np.int64)
            else:
                import pandas as pd

                g = pd.DataFrame({"lo": lo, "hi": hi, "q": qw}).groupby(["lo", "hi"], sort=False)["q"].agg(
                    n="size", q="sum"
                )
                lo_u = g.index.get_level_values(0).to_numpy(dtype=np.int64)
                hi_u = g.index.get_level_values(1).to_numpy(dtype=np.int64)
                cnts = g["n"].to_numpy(dtype=np.int64)
                qs = g["q"].to_numpy(dtype=np.float64).astype(np.int64)
        if skipped:
            bucket = int(df[BUCKET_COL].iloc[0])
            lo_u = np.append(lo_u, -1 - bucket)
            hi_u = np.append(hi_u, skipped)
            cnts = np.append(cnts, 0)
            qs = np.append(qs, 0)
        return pa.table({"lo": pa.array(lo_u, type=pa.int64()), "hi": pa.array(hi_u, type=pa.int64()),
                         "n": pa.array(cnts.astype(np.int64), type=pa.int64()),
                         "q": pa.array(qs.astype(np.int64), type=pa.int64())}, schema=part_schema)

    sym = edges.map_batches(symmetrize, batch_format="pyarrow")
    partials = bucket_exchange(
        with_bucket(sym, "s", num_buckets, in_schema=sym_schema), pair_partials, part_schema, num_buckets
    ).materialize()

    sent = partials.map_batches(
        lambda t: t.filter(pc.less(t.column("lo"), 0)), batch_format="pyarrow"
    ).take_all()
    if sent:
        skipped_total = int(sum(r["hi"] for r in sent))
        if stats is not None:
            stats["cn_hubs_skipped"] = skipped_total
        print(f"WARNING: common_neighbor_topk skipped {skipped_total} hub centers "
              f"(degree > {hub_degree_cap}) — their co-neighbor votes are lost")
        partials = compact_nonempty(partials.map_batches(
            lambda t: t.filter(pc.greater_equal(t.column("lo"), 0)), batch_format="pyarrow"
        ).materialize())
    elif stats is not None:
        stats["cn_hubs_skipped"] = 0

    cn = bucketed_aggregate(partials, ["lo", "hi"], {"cn": ("n", "sum"), "q": ("q", "sum")},
                            out_schema=pa.schema([("lo", pa.int64()), ("hi", pa.int64()),
                                                  ("cn", pa.int64()), ("q", pa.int64())]),
                            num_buckets=num_buckets)
    cn = cn.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("cn"), min_common)), batch_format="pyarrow"
    )

    # adjacency removal: guarded packed broadcast, else tagged bucketed anti-join
    max_b = max(int(pc.max(t.column("b")).as_py()) for t in ray.get(edges.to_arrow_refs()) if t.num_rows) \
        if n_edges <= edge_broadcast_max else None
    if max_b is not None and max_b < 2**31:
        et = pa.concat_tables([t for t in ray.get(edges.to_arrow_refs()) if t.num_rows])
        ea = et.column("a").to_numpy(zero_copy_only=False).astype(np.uint64)
        eb = et.column("b").to_numpy(zero_copy_only=False).astype(np.uint64)
        edge_ref = ray.put(np.sort((ea << np.uint64(32)) | eb))

        def drop_adjacent(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return t
            lo = t.column("lo").to_numpy(zero_copy_only=False).astype(np.uint64)
            hi = t.column("hi").to_numpy(zero_copy_only=False).astype(np.uint64)
            keys = (lo << np.uint64(32)) | hi
            es = ray.get(edge_ref)
            pos = np.minimum(np.searchsorted(es, keys), len(es) - 1)
            return t.filter(pa.array(es[pos] != keys))

        nonadj = cn.map_batches(drop_adjacent, batch_format="pyarrow")
    else:
        tag_schema = pa.schema([("lo", pa.int64()), ("hi", pa.int64()), ("cn", pa.int64()),
                                ("q", pa.int64()), ("side", pa.int64())])
        kept_schema = pa.schema([("lo", pa.int64()), ("hi", pa.int64()), ("cn", pa.int64()), ("q", pa.int64())])

        def tag(side: int):
            def f(t: pa.Table) -> pa.Table:
                if t.num_rows == 0:
                    return tag_schema.empty_table()
                nulls = pa.nulls(t.num_rows, type=pa.int64())
                cols = {"lo": t.column("a" if side == 0 else "lo"),
                        "hi": t.column("b" if side == 0 else "hi"),
                        "cn": nulls if side == 0 else t.column("cn"),
                        "q": nulls if side == 0 else t.column("q"),
                        "side": pa.array(np.full(t.num_rows, side), type=pa.int64())}
                return pa.table(cols, schema=tag_schema)
            return f

        tagged = edges.map_batches(tag(0), batch_format="pyarrow").union(
            cn.map_batches(tag(1), batch_format="pyarrow")
        )

        def anti(df) -> pa.Table:
            if len(df) == 0:
                return kept_schema.empty_table()
            df = df.drop(columns=[BUCKET_COL])
            adj = df[df["side"] == 0][["lo", "hi"]]
            keep = df[df["side"] == 1].merge(adj, on=["lo", "hi"], how="left", indicator=True)
            keep = keep[keep["_merge"] == "left_only"]
            return pa.table({"lo": pa.array(keep["lo"].to_numpy(dtype=np.int64), type=pa.int64()),
                             "hi": pa.array(keep["hi"].to_numpy(dtype=np.int64), type=pa.int64()),
                             "cn": pa.array(keep["cn"].to_numpy(dtype=np.int64), type=pa.int64()),
                             "q": pa.array(keep["q"].to_numpy(dtype=np.int64), type=pa.int64())})

        nonadj = bucket_exchange(
            with_bucket(tagged, ["lo", "hi"], num_buckets, in_schema=tag_schema), anti,
            kept_schema, num_buckets,
        )

    if rank_by == "jaccard":
        # Jaccard(u, v) = cn / (deg u + deg v - cn), quantized EXACTLY as
        # (10^9 * cn) // denom (integer division, no libm) into the same
        # ``q`` rank column the RA path uses.  Degrees come from ONE
        # node-keyed combiner aggregate over the symmetrized edge stream
        # and attach via two guarded lookup_joins (node-set-sized side).
        # denom >= cn >= min_common >= 1, so the division is total.
        from text_to_graph_ray.functions.joins import lookup_join

        if min_common < 1:
            raise ValueError("rank_by='jaccard' requires min_common >= 1")
        deg_part = pa.schema([("node", pa.int64()), ("deg", pa.int64())])

        def deg_partial(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return deg_part.empty_table()
            g = t.select(["s"]).group_by("s").aggregate([("s", "count")])
            return pa.table({"node": g.column("s"), "deg": pc.cast(g.column("s_count"), pa.int64())},
                            schema=deg_part)

        deg = bucketed_aggregate(
            edges.map_batches(symmetrize, batch_format="pyarrow").map_batches(
                deg_partial, batch_format="pyarrow", batch_size=None
            ),
            "node", {"deg": ("deg", "sum")}, out_schema=deg_part, in_schema=deg_part,
        )

        def rename_deg(name):
            def f(t: pa.Table) -> pa.Table:
                return pa.table({"node": t.column("node"), name: t.column("deg")}) if t.num_rows \
                    else pa.schema([("node", pa.int64()), (name, pa.int64())]).empty_table()

            return f

        deg_u = deg.map_batches(rename_deg("deg_u"), batch_format="pyarrow")
        deg_v = deg.map_batches(rename_deg("deg_v"), batch_format="pyarrow")
        enriched = lookup_join(
            lookup_join(nonadj, deg_u, key="lo", right_key="node", cols=["deg_u"]),
            deg_v, key="hi", right_key="node", cols=["deg_v"],
        )

        def jaccard_q(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return pa.schema([("lo", pa.int64()), ("hi", pa.int64()),
                                  ("cn", pa.int64()), ("q", pa.int64())]).empty_table()
            cnv = t.column("cn").to_numpy(zero_copy_only=False).astype(np.int64)
            du = t.column("deg_u").to_numpy(zero_copy_only=False).astype(np.int64)
            dv = t.column("deg_v").to_numpy(zero_copy_only=False).astype(np.int64)
            q = (np.int64(1_000_000_000) * cnv) // (du + dv - cnv)
            return pa.table({"lo": t.column("lo"), "hi": t.column("hi"),
                             "cn": t.column("cn"), "q": pa.array(q, type=pa.int64())})

        nonadj = enriched.map_batches(jaccard_q, batch_format="pyarrow")

    rank_col = "q" if rank_by in ("ra", "jaccard") else "cn"

    def local_topk(t: pa.Table) -> pa.Table:
        if t.num_rows <= k:
            return t
        import pandas as pd

        df = pd.DataFrame({c: t.column(c).to_numpy(zero_copy_only=False) for c in ("lo", "hi", "cn", "q")})
        df = df.sort_values([rank_col, "lo", "hi"], ascending=[False, True, True], kind="mergesort").head(k)
        return pa.table({c: pa.array(df[c].to_numpy(dtype=np.int64), type=pa.int64())
                         for c in ("lo", "hi", "cn", "q")})

    def final_topk(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        import pandas as pd

        df = pd.DataFrame({"u": t.column("lo").to_numpy(zero_copy_only=False),
                           "v": t.column("hi").to_numpy(zero_copy_only=False),
                           "cn": t.column("cn").to_numpy(zero_copy_only=False),
                           "q": t.column("q").to_numpy(zero_copy_only=False)})
        rc = "q" if rank_by in ("ra", "jaccard") else "cn"
        df = df.sort_values([rc, "u", "v"], ascending=[False, True, True], kind="mergesort").head(k)
        cols = {"u": pa.array(df["u"].to_numpy(dtype=np.int64), type=pa.int64()),
                "v": pa.array(df["v"].to_numpy(dtype=np.int64), type=pa.int64()),
                "cn": pa.array(df["cn"].to_numpy(dtype=np.int64), type=pa.int64())}
        if include_ra:
            ra = df["q"].to_numpy(dtype=np.int64).astype(np.float64) / 1e9
            cols[out_schema.names[-1]] = pa.array([round(float(x), 6) for x in ra], type=pa.float64())
        return pa.table(cols, schema=out_schema)

    return (
        nonadj.map_batches(local_topk, batch_format="pyarrow")
        .repartition(1)
        .map_batches(final_topk, batch_format="pyarrow", batch_size=None)
    )


def clustering_coefficients(edges_ds, src_col: str = "src", dst_col: str = "dst",
                            num_buckets: int = 64, deg_broadcast_max: int = 5_000_000):
    """Local clustering coefficient per node: cc(v) = 2*T(v) / (d(v)*(d(v)-1))
    over the undirected deduped graph (0.0 for degree < 2) — the standard
    graph-quality metric on top of ``triangle_counts``.

    Scale shape: the triangle plan already materializes the degree table,
    so ``return_degrees=True`` adds ZERO extra passes; degrees and triangle
    counts (both node-sized aggregates) meet in one keyed_full_outer
    exchange; the finish is elementwise. Float discipline: one int64
    product (exact as a double for d < 2^26), one IEEE division, round(6)
    — mirrored op-for-op in SQL.

    Returns (node, degree, triangles, cc) sorted by node."""
    from text_to_graph_ray.functions.joins import keyed_full_outer
    from text_to_graph_ray.util import sort_coalesced

    tri, deg = triangle_counts(edges_ds, src_col=src_col, dst_col=dst_col,
                               num_buckets=num_buckets,
                               deg_broadcast_max=deg_broadcast_max,
                               return_degrees=True)
    joined = keyed_full_outer(deg, tri, "node", ["d"], ["triangles"], num_buckets)

    out_schema = pa.schema([("node", pa.int64()), ("degree", pa.int64()),
                            ("triangles", pa.int64()), ("cc", pa.float64())])

    def finish(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return out_schema.empty_table()
        d = b.column("d").to_numpy(zero_copy_only=False).astype(np.float64)
        t = np.nan_to_num(
            b.column("triangles").to_numpy(zero_copy_only=False).astype(np.float64), nan=0.0
        )
        den = np.where(d >= 2.0, d * (d - 1.0), 1.0)
        cc = np.where(d >= 2.0, np.round((2.0 * t) / den, 6), 0.0)
        return pa.table(
            {
                "node": b.column("node").cast(pa.int64()),
                "degree": pa.array(d.astype(np.int64)),
                "triangles": pa.array(t.astype(np.int64)),
                "cc": pa.array(cc),
            },
            schema=out_schema,
        )

    return sort_coalesced(joined.map_batches(finish, batch_format="pyarrow"), "node")


def degree_assortativity(edges_ds, src_col: str = "src", dst_col: str = "dst",
                         num_buckets: int = 64, deg_broadcast_max: int = 5_000_000):
    """Degree assortativity coefficient (Newman 2002) of the undirected
    deduped graph: the Pearson correlation of endpoint degrees over edges —
    positive when hubs attach to hubs, negative for hub-and-spoke graphs.
    A core graph-quality / topology fingerprint next to clustering
    coefficients (reference parity: the reference computes no graph
    statistics; this extends the engine's graph family).

    Exact-math discipline: canonicalize + DISTINCT the edges (combiner
    first), count degrees in one bucketed exchange, attach (d(a), d(b)) to
    every edge via a guarded node-sized degree broadcast (sorted-array
    searchsorted; two distributed hash joins past ``deg_broadcast_max`` —
    same guard as ``triangle_counts``), then reduce each batch to FOUR
    int64 partial sums: m, ss = sum(da+db), sp = sum(da*db),
    sq = sum(da^2+db^2). The driver folds one 4-int row per block in
    arbitrary-precision Python ints, and with every term scaled by 4m^2
    the coefficient is a ratio of two INTEGERS:

        r = (4*m*sp - ss^2) / (2*m*sq - ss^2)

    computed as one float64(num)/float64(den) IEEE division + round(6)
    (int->double conversion is round-to-nearest on numpy and DuckDB alike,
    so the SQL mirror — HUGEINT sums, one CAST AS DOUBLE division — decides
    identically). Degenerate regular graphs (den == 0) return r = 0.0 on
    both engines.

    Returns a ONE-ROW (m_edges int64, r float64) pyarrow Table.
    """
    import pyarrow.compute as pc
    import ray

    from text_to_graph_ray.functions.agg import bucketed_aggregate, distinct_rows
    from text_to_graph_ray.functions.dedup import join_partitions_for

    edge_schema = pa.schema([("a", pa.int64()), ("b", pa.int64())])

    def canon(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return edge_schema.empty_table()
        s, d = pc.cast(t.column(src_col), pa.int64()), pc.cast(t.column(dst_col), pa.int64())
        lo, hi = pc.min_element_wise(s, d), pc.max_element_wise(s, d)
        out = pa.table({"a": lo, "b": hi})
        return out.filter(pc.not_equal(out.column("a"), out.column("b")))

    edges = distinct_rows(
        edges_ds.map_batches(canon, batch_format="pyarrow"), ["a", "b"], edge_schema
    ).materialize()

    deg_schema = pa.schema([("node", pa.int64()), ("d", pa.int64())])

    def endpoints(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.schema([("node", pa.int64())]).empty_table()
        return pa.table({"node": pa.concat_arrays([
            t.column("a").combine_chunks(), t.column("b").combine_chunks()
        ])})

    deg = bucketed_aggregate(
        edges.map_batches(endpoints, batch_format="pyarrow"), "node", {"d": ("node", "size")},
        out_schema=deg_schema, num_buckets=num_buckets,
        in_schema=pa.schema([("node", pa.int64())]),
    ).materialize()
    n_nodes = deg.count()

    part_schema = pa.schema([("m", pa.int64()), ("ss", pa.int64()),
                             ("sp", pa.int64()), ("sq", pa.int64())])

    def sums_arrays(da: np.ndarray, db: np.ndarray) -> pa.Table:
        # int64 batch partials: exact while max degree stays under ~2^21 at
        # million-row batches (da*db <= 2^42 summed over <= 2^21 rows); the
        # driver fold below is arbitrary-precision, so only the per-batch
        # sums bound the regime. Degrees near 2^21 mean a ~4e12-edge hub —
        # far beyond any corpus this engine targets.
        return pa.table({
            "m": pa.array([int(da.shape[0])], type=pa.int64()),
            "ss": pa.array([int(np.add(da, db).sum())], type=pa.int64()),
            "sp": pa.array([int(np.multiply(da, db).sum())], type=pa.int64()),
            "sq": pa.array([int((da * da + db * db).sum())], type=pa.int64()),
        }, schema=part_schema)

    if n_nodes <= deg_broadcast_max:
        blocks = [t for t in ray.get(deg.to_arrow_refs()) if t.num_rows]
        if blocks:
            dt = pa.concat_tables(blocks)
            nodes_np = dt.column("node").to_numpy(zero_copy_only=False).astype(np.int64)
            degs_np = dt.column("d").to_numpy(zero_copy_only=False).astype(np.int64)
            order = np.argsort(nodes_np)
            deg_ref = ray.put((nodes_np[order], degs_np[order]))
        else:
            deg_ref = ray.put((np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)))

        def partial_bcast(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return part_schema.empty_table()
            nodes_s, degs_s = ray.get(deg_ref)
            a = t.column("a").to_numpy(zero_copy_only=False).astype(np.int64)
            b = t.column("b").to_numpy(zero_copy_only=False).astype(np.int64)
            return sums_arrays(degs_s[np.searchsorted(nodes_s, a)],
                               degs_s[np.searchsorted(nodes_s, b)])

        parts = edges.map_batches(partial_bcast, batch_format="pyarrow", batch_size=None)
    else:
        deg_b = deg.map_batches(
            lambda t: pa.table({"node_b": t.column("node"), "db": t.column("d")}) if t.num_rows
            else pa.schema([("node_b", pa.int64()), ("db", pa.int64())]).empty_table(),
            batch_format="pyarrow",
        )
        j = edges.join(deg, join_type="inner", num_partitions=join_partitions_for(),
                       on=("a",), right_on=("node",), partition_size_hint=16 << 20)
        j = j.join(deg_b, join_type="inner", num_partitions=join_partitions_for(),
                   on=("b",), right_on=("node_b",), partition_size_hint=16 << 20)

        def partial_joined(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return part_schema.empty_table()
            return sums_arrays(t.column("d").to_numpy(zero_copy_only=False).astype(np.int64),
                               t.column("db").to_numpy(zero_copy_only=False).astype(np.int64))

        parts = j.map_batches(partial_joined, batch_format="pyarrow", batch_size=None)

    # driver fold: one 4-int row per block — answer-sized by construction
    m = ss = sp = sq = 0
    for row in parts.take_all():
        m += int(row["m"]); ss += int(row["ss"]); sp += int(row["sp"]); sq += int(row["sq"])
    num = 4 * m * sp - ss * ss
    den = 2 * m * sq - ss * ss
    r = round(float(num) / float(den), 6) if den != 0 else 0.0
    return pa.table({"m_edges": pa.array([m], type=pa.int64()),
                     "r": pa.array([r], type=pa.float64())})


def sample_neighbors(edges_ds, src_col: str = "src", dst_col: str = "dst",
                     fanout=(3, 2), seed_mod: int | None = None,
                     knuth: int = 2654435761, mix: int = 40503, modp: int = 1_000_003,
                     num_buckets: int = 64):
    """Deterministic GraphSAGE-style 2-hop neighbor sampling: for every
    seed node take its ``fanout[0]`` hash-ranked out-neighbors, then each
    sampled neighbor's ``fanout[1]`` hash-ranked out-neighbors — the
    minibatch fan-out primitive for graph-ML feature assembly, made
    reproducible by ranking edges with the engine's Knuth multiplicative
    hash instead of an RNG:

        rank key = (s * knuth + t * mix) mod modp,  ties by t ASC

    so a node's sample is stable under repartitioning, incremental edge
    loads, and re-runs (the holdout-split determinism argument). All
    arithmetic stays in int64 (s * knuth <= ~2^31 * 2^33 needs ids below
    ~2^31; the mod-bounded graphs here are far inside), mirrored exactly
    in SQL's row_number ORDER BY.

    Scale shape: per-node ranking is ONE ``topk_per_group`` (per-batch
    combiner prunes each block to its local top-k before the keyed
    exchange), reused for both hops; hop-2 attaches via one distributed
    hash join keyed on the hop-1 sample. Output is sample-sized
    (seeds x fanout[0] x fanout[1] upper bound), never edge-sized.
    ``seed_mod`` restricts seeds to ``s % seed_mod == 0`` (None = every
    node with out-edges). Leaf hop-1 nodes (no out-edges) drop, matching
    the SQL inner-join frame.

    Returns (seed, n1, n2) sorted by (seed, n1, n2)."""
    import pyarrow.compute as pc

    from text_to_graph_ray.functions.agg import distinct_rows, topk_per_group
    from text_to_graph_ray.functions.dedup import join_partitions_for
    from text_to_graph_ray.util import sort_coalesced

    e_schema = pa.schema([("s", pa.int64()), ("t", pa.int64())])

    def clean(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return e_schema.empty_table()
        s = pc.cast(b.column(src_col), pa.int64())
        t = pc.cast(b.column(dst_col), pa.int64())
        out = pa.table({"s": s, "t": t}, schema=e_schema)
        return out.filter(pc.not_equal(out.column("s"), out.column("t")))

    edges = distinct_rows(edges_ds.map_batches(clean, batch_format="pyarrow"),
                          ["s", "t"], e_schema)

    hk_schema = pa.schema([("s", pa.int64()), ("t", pa.int64()), ("hk", pa.int64())])

    def with_hk(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return hk_schema.empty_table()
        s = b.column("s").to_numpy(zero_copy_only=False).astype(np.int64)
        t = b.column("t").to_numpy(zero_copy_only=False).astype(np.int64)
        hk = (s * np.int64(knuth) + t * np.int64(mix)) % np.int64(modp)
        return pa.table({"s": b.column("s"), "t": b.column("t"),
                         "hk": pa.array(hk, type=pa.int64())}, schema=hk_schema)

    ranked = edges.map_batches(with_hk, batch_format="pyarrow").materialize()

    def hop_sample(k: int):
        return topk_per_group(ranked, ["s"], "hk", k=k, descending=False,
                              tiebreak="t", out_schema=hk_schema,
                              num_buckets=num_buckets, in_schema=hk_schema)

    hop1 = hop_sample(fanout[0])
    if seed_mod is not None:
        m = int(seed_mod)

        def seed_filter(b: pa.Table) -> pa.Table:
            if b.num_rows == 0:
                return b
            s = b.column("s").to_numpy(zero_copy_only=False).astype(np.int64)
            return b.filter(pa.array(s % m == 0))

        hop1 = hop1.map_batches(seed_filter, batch_format="pyarrow", batch_size=None)

    def as_h1(b: pa.Table) -> pa.Table:
        sch = pa.schema([("seed", pa.int64()), ("n1", pa.int64())])
        if b.num_rows == 0:
            return sch.empty_table()
        return pa.table({"seed": b.column("s"), "n1": b.column("t")}, schema=sch)

    h1 = hop1.map_batches(as_h1, batch_format="pyarrow")

    def as_h2(b: pa.Table) -> pa.Table:
        sch = pa.schema([("n1", pa.int64()), ("n2", pa.int64())])
        if b.num_rows == 0:
            return sch.empty_table()
        return pa.table({"n1": b.column("s"), "n2": b.column("t")}, schema=sch)

    h2 = hop_sample(fanout[1]).map_batches(as_h2, batch_format="pyarrow")

    j = h1.join(h2, join_type="inner", num_partitions=join_partitions_for(),
                on=("n1",), partition_size_hint=16 << 20)
    out = j.select_columns(["seed", "n1", "n2"])
    return sort_coalesced(out, ["seed", "n1", "n2"])


def strongly_connected_components(edges_ds, src_col: str = "src", dst_col: str = "dst",
                                  collect_max: int = 2_000_000, max_outer: int = 64,
                                  max_rounds: int = 128, node_type: pa.DataType = None):
    """Directed strongly connected components: (node, scc_id) for every node
    appearing in the edge table, with ``scc_id`` = the smallest node id in
    the component (the same canonical-min contract as connected_components).

    Plans (guarded, value-identical — the threshold-0 test forces plan B):

    A. edge count <= ``collect_max``: one driver-side iterative Tarjan pass —
       the exact-oracle baseline, same regime as connected_components'
       union-find arm.

    B. distributed FW-BW-MIN coloring (Orzan-style peeling), the plan a
       100-TB edge table needs. Each outer round, over the still-active
       subgraph:
         1. FORWARD min-label propagation to fixpoint: color(v) = min id
            that reaches v. Per round: ONE lookup_join of the edge stream
            against the node-set-sized color table (guarded broadcast /
            bucketed exchange) + ONE keyed min fold; convergence by the
            order-insensitive content signature.
         2. BACKWARD containment from the roots (color(v) == v): flag u
            when some edge u->w has flag(w) and color(u) == color(w) —
            flags only grow, so a stable flag count is convergence.
         3. Every flagged node is in the SCC of its color root; emit
            (node, color), peel them out of the active node/edge sets
            (guarded semi/anti filters), repeat.
       Each round's exchanges are edge-stream scans + node-set-sized
       shuffles; nothing edge-sized ever reaches the driver.
    """
    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data.aggregate import Min

    from text_to_graph_ray.functions.agg import distinct_rows
    from text_to_graph_ray.functions.joins import filter_by_keys, lookup_join

    node_type = node_type or pa.int64()
    out_schema = pa.schema([("node", node_type), ("scc_id", node_type)])

    edges = edges_ds.materialize()
    n_edges = edges.count()
    if n_edges == 0:
        return rd.from_arrow(out_schema.empty_table())

    if n_edges <= collect_max:
        # ---- plan A: driver-side iterative Tarjan ----
        adj: dict = {}
        nodes_set = set()
        for b in edges.iter_batches(batch_size=65536, batch_format="pyarrow"):
            for s, t in zip(b.column(src_col).to_pylist(), b.column(dst_col).to_pylist()):
                adj.setdefault(s, []).append(t)
                nodes_set.add(s)
                nodes_set.add(t)
        index: dict = {}
        low: dict = {}
        on_stack: set = set()
        stack: list = []
        comp_of: dict = {}
        counter = [0]
        for root in sorted(nodes_set):
            if root in index:
                continue
            work = [(root, iter(adj.get(root, ())))]
            index[root] = low[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                v, it = work[-1]
                advanced = False
                for w in it:
                    if w not in index:
                        index[w] = low[w] = counter[0]
                        counter[0] += 1
                        stack.append(w)
                        on_stack.add(w)
                        work.append((w, iter(adj.get(w, ()))))
                        advanced = True
                        break
                    elif w in on_stack:
                        low[v] = min(low[v], index[w])
                if advanced:
                    continue
                work.pop()
                if work:
                    pv = work[-1][0]
                    low[pv] = min(low[pv], low[v])
                if low[v] == index[v]:
                    members = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        members.append(w)
                        if w == v:
                            break
                    cid = min(members)
                    for w in members:
                        comp_of[w] = cid
        ns = sorted(nodes_set)
        return rd.from_arrow(
            pa.table({"node": pa.array(ns, type=node_type),
                      "scc_id": pa.array([comp_of[n] for n in ns], type=node_type)}, schema=out_schema)
        )

    # ---- plan B: distributed FW-BW-MIN peeling ----
    node_schema = pa.schema([("node", node_type)])
    label_schema = pa.schema([("node", node_type), ("label", node_type)])

    def to_nodes(col):
        def f(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return node_schema.empty_table()
            return pa.table({"node": pc.cast(t.column(col), node_type)}, schema=node_schema)

        return f

    active_nodes = distinct_rows(
        edges.map_batches(to_nodes(src_col), batch_format="pyarrow").union(
            edges.map_batches(to_nodes(dst_col), batch_format="pyarrow")
        ),
        "node",
        node_schema,
    ).materialize()
    active_edges = edges
    emitted = []

    def singletons(nodes_ds):
        return nodes_ds.map_batches(
            lambda t: pa.table({"node": t.column("node"), "scc_id": t.column("node")}, schema=out_schema)
            if t.num_rows else out_schema.empty_table(),
            batch_format="pyarrow",
        ).materialize()

    for _outer in range(max_outer):
        if active_nodes.count() == 0:
            break
        if active_edges.count() == 0:
            # no intra edges left: every remaining node is its own SCC
            emitted.append(singletons(active_nodes))
            break
        # -- 1. forward min-label to fixpoint --
        colors = active_nodes.map_batches(
            lambda t: pa.table({"node": t.column("node"), "label": t.column("node")}, schema=label_schema)
            if t.num_rows else label_schema.empty_table(),
            batch_format="pyarrow",
        ).materialize()
        prev_sig = None
        converged = False
        for _ in range(max_rounds):
            enriched = lookup_join(active_edges, colors, key=src_col, right_key="node", cols=["label"])
            msgs = enriched.map_batches(
                lambda t: pa.table(
                    {"node": pc.cast(t.column(dst_col), node_type), "label": pc.cast(t.column("label"), node_type)},
                    schema=label_schema,
                )
                if t.num_rows else label_schema.empty_table(),
                batch_format="pyarrow",
            )
            colors = msgs.union(colors).groupby("node").aggregate(Min("label", alias_name="label")).materialize()
            sig = _labels_signature(colors)
            if sig == prev_sig:
                converged = True
                break
            prev_sig = sig
        if not converged:
            raise RuntimeError(f"scc: forward coloring did not converge in {max_rounds} rounds")

        # -- 2. backward containment from roots --
        flagged = colors.map_batches(
            lambda t: t.filter(pc.equal(t.column("node"), t.column("label"))),
            batch_format="pyarrow",
        ).materialize()
        for _ in range(max_rounds):
            n_before = flagged.count()
            # u is flagged when an edge u->w has w flagged and color(u)==color(w)
            hits = lookup_join(active_edges, flagged, key=dst_col, right_key="node", cols=["label"])
            cand = hits.map_batches(
                lambda t: pa.table(
                    {"node": pc.cast(t.filter(pc.is_valid(t.column("label"))).column(src_col), node_type),
                     "flag_label": pc.cast(t.filter(pc.is_valid(t.column("label"))).column("label"), node_type)},
                )
                if t.num_rows else pa.schema([("node", node_type), ("flag_label", node_type)]).empty_table(),
                batch_format="pyarrow",
            ).materialize()
            if cand.count() == 0:
                break
            cand = lookup_join(cand, colors, key="node", right_key="node", cols=["label"])
            new_nodes = cand.map_batches(
                lambda t: pa.table(
                    {"node": t.filter(pc.equal(t.column("flag_label"), t.column("label"))).column("node")},
                    schema=node_schema,
                )
                if t.num_rows else node_schema.empty_table(),
                batch_format="pyarrow",
            )
            new_nodes = distinct_rows(
                filter_by_keys(new_nodes, flagged, key="node", right_key="node", mode="anti"),
                "node", node_schema,
            )
            if new_nodes.count() == 0:
                break
            grown = lookup_join(new_nodes, colors, key="node", right_key="node", cols=["label"])
            flagged = flagged.union(
                grown.map_batches(
                    lambda t: pa.table(
                        {"node": t.column("node"), "label": pc.cast(t.column("label"), node_type)},
                        schema=label_schema,
                    )
                    if t.num_rows else label_schema.empty_table(),
                    batch_format="pyarrow",
                )
            ).materialize()
            if flagged.count() == n_before:
                break

        # -- 3. emit, peel, repeat --
        emitted.append(
            flagged.map_batches(
                lambda t: pa.table({"node": t.column("node"), "scc_id": t.column("label")}, schema=out_schema)
                if t.num_rows else out_schema.empty_table(),
                batch_format="pyarrow",
            ).materialize()
        )
        active_nodes = filter_by_keys(active_nodes, flagged, key="node", right_key="node", mode="anti").materialize()
        if active_nodes.count() == 0:
            break
        active_edges = filter_by_keys(
            filter_by_keys(active_edges, active_nodes, key=src_col, right_key="node", mode="semi"),
            active_nodes, key=dst_col, right_key="node", mode="semi",
        ).materialize()
    else:
        raise RuntimeError(f"scc: peeling did not finish in {max_outer} outer rounds")

    from text_to_graph_ray.util import sort_coalesced

    out = emitted[0]
    for p in emitted[1:]:
        out = out.union(p)
    return sort_coalesced(out, "node")


def hits_scores(edges_ds, iters: int = 2, src_col: str = "src", dst_col: str = "dst",
                node_type: pa.DataType = None):
    """HITS hubs-and-authorities (Kleinberg 1999), ``iters`` full unrolled
    iterations with L1 normalization: a_t(v) = Σ_{u→v} h_{t-1}(u) then
    a_t /= Σa_t; h_t(u) = Σ_{u→v} a_t(v) then h_t /= Σh_t.  round(_, 9) at
    every normalization boundary on both engines (the pagerank float
    discipline): association-order drift in the keyed sums and in the global
    L1 scalar is ~1e-15 relative, orders of magnitude inside the 5e-10
    rounding window, so engine and SQL oracle emit identical doubles.

    Scale shape per half-iteration: ONE guarded lookup_join of the edge
    stream against the node-set-sized score table (broadcast under the row
    guard, bucketed exchange past it) + ONE keyed sum + ONE driver scalar —
    the bfs/pagerank per-round shape.  Dangling ends contribute 0 via the
    LEFT-outer fill, exactly as the oracle's COALESCE."""
    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data.aggregate import Sum

    from text_to_graph_ray.functions.agg import distinct_rows
    from text_to_graph_ray.functions.joins import lookup_join

    node_type = node_type or pa.int64()
    node_schema = pa.schema([("node", node_type)])
    score_schema = pa.schema([("node", node_type), ("s", pa.float64())])

    def to_nodes(col):
        def f(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return node_schema.empty_table()
            return pa.table({"node": pc.cast(t.column(col), node_type)}, schema=node_schema)

        return f

    edges = edges_ds.materialize()
    out_schema = pa.schema([("node", node_type), ("authority", pa.float64()), ("hub", pa.float64())])
    if edges.count() == 0:
        return rd.from_arrow(out_schema.empty_table())
    nodes = distinct_rows(
        edges.map_batches(to_nodes(src_col), batch_format="pyarrow").union(
            edges.map_batches(to_nodes(dst_col), batch_format="pyarrow")
        ),
        "node", node_schema,
    ).materialize()
    n = nodes.count()
    h0 = round(1.0 / n, 9)
    h = nodes.map_batches(
        lambda t: pa.table({"node": t.column("node"), "s": pa.array(np.full(t.num_rows, h0))}, schema=score_schema)
        if t.num_rows else score_schema.empty_table(),
        batch_format="pyarrow",
    ).materialize()

    def half_step(scores, from_col: str, to_col: str):
        """push ``scores`` along from_col -> to_col, L1-normalize, round 9."""
        enriched = lookup_join(edges, scores, key=from_col, right_key="node", cols=["s"])
        msgs = enriched.map_batches(
            lambda t: pa.table(
                {"node": pc.cast(t.column(to_col), node_type), "s": pc.cast(t.column("s"), pa.float64())},
                schema=score_schema,
            )
            if t.num_rows else score_schema.empty_table(),
            batch_format="pyarrow",
        )
        sums = msgs.groupby("node").aggregate(Sum("s", alias_name="raw")).materialize()
        total = sums.sum("raw") or 1.0
        filled = lookup_join(nodes, sums, key="node", right_key="node", cols=["raw"])

        def norm(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return score_schema.empty_table()
            raw = t.column("raw").to_pandas().fillna(0.0).to_numpy(dtype=np.float64)
            return pa.table({"node": t.column("node"), "s": pa.array(np.round(raw / total, 9))},
                            schema=score_schema)

        return filled.map_batches(norm, batch_format="pyarrow").materialize()

    a = None
    for _ in range(iters):
        a = half_step(h, src_col, dst_col)   # authorities collect hub mass
        h = half_step(a, dst_col, src_col)   # hubs collect authority mass

    a2 = a.map_batches(
        lambda t: pa.table({"node": t.column("node"), "authority": t.column("s")})
        if t.num_rows else pa.schema([("node", node_type), ("authority", pa.float64())]).empty_table(),
        batch_format="pyarrow",
    )
    joined = lookup_join(
        a2, h.map_batches(
            lambda t: pa.table({"node": t.column("node"), "hub": t.column("s")})
            if t.num_rows else pa.schema([("node", node_type), ("hub", pa.float64())]).empty_table(),
            batch_format="pyarrow",
        ),
        key="node", right_key="node", cols=["hub"],
    )
    from text_to_graph_ray.util import sort_coalesced

    return sort_coalesced(
        joined.map_batches(
            lambda t: pa.table({"node": t.column("node"), "authority": t.column("authority"),
                                "hub": t.column("hub")}, schema=out_schema)
            if t.num_rows else out_schema.empty_table(),
            batch_format="pyarrow",
        ),
        "node",
    )


def _edge_support(edges, num_buckets: int = 64, deg_broadcast_max: int = 5_000_000):
    """Per-EDGE triangle support over a MATERIALIZED, canonical (a < b),
    DISTINCT undirected edge Dataset: (a, b, sup) for every edge that closes
    at least one triangle.

    Same degree-ordered compact-forward wedge plan as ``triangle_counts``
    (wedge volume Σ outdeg² with outdeg O(√m)); the difference is the
    partial: each closed wedge (s; lo, hi) credits its THREE triangle edges
    — canon(s, lo), canon(s, hi), (lo, hi) — and each bucket PRE-COUNTS
    those edge keys, so the final exchange carries (a, b, cnt) combiner
    partials (O(edges-per-bucket) rows), never 3T triangle rows. The packed
    uint64 closing-set broadcast and the side-tagged bucketed fallback are
    both here, value-identical (equivalence-tested via deg_broadcast_max=0).
    """
    import pyarrow.compute as pc
    import ray

    from text_to_graph_ray.functions.agg import (
        bucket_exchange, bucketed_aggregate, with_bucket,
    )

    deg_schema = pa.schema([("node", pa.int64()), ("d", pa.int64())])
    sup_schema = pa.schema([("a", pa.int64()), ("b", pa.int64()), ("sup", pa.int64())])
    part_schema = pa.schema([("a", pa.int64()), ("b", pa.int64()), ("cnt", pa.int64())])
    ori_schema = pa.schema([("s", pa.int64()), ("t", pa.int64())])

    def endpoints(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.schema([("node", pa.int64())]).empty_table()
        return pa.table({"node": pa.concat_arrays([
            t.column("a").combine_chunks(), t.column("b").combine_chunks()
        ])})

    deg = bucketed_aggregate(
        edges.map_batches(endpoints, batch_format="pyarrow"), "node", {"d": ("node", "size")},
        out_schema=deg_schema, num_buckets=num_buckets,
        in_schema=pa.schema([("node", pa.int64())]),
    ).materialize()
    n_nodes = deg.count()

    def orient_arrays(a: np.ndarray, b: np.ndarray, da: np.ndarray, db: np.ndarray) -> pa.Table:
        fwd = da <= db  # a < b by id, so (deg, id) tie-break is da <= db
        return pa.table({
            "s": pa.array(np.where(fwd, a, b), type=pa.int64()),
            "t": pa.array(np.where(fwd, b, a), type=pa.int64()),
        }, schema=ori_schema)

    if n_nodes <= deg_broadcast_max:
        blocks = [t for t in ray.get(deg.to_arrow_refs()) if t.num_rows]
        if blocks:
            dt = pa.concat_tables(blocks)
            nodes_np = np.asarray(dt.column("node").to_pylist(), dtype=np.int64)
            degs_np = np.asarray(dt.column("d").to_pylist(), dtype=np.int64)
            order = np.argsort(nodes_np)
            deg_ref = ray.put((nodes_np[order], degs_np[order]))
        else:
            deg_ref = ray.put((np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)))

        def orient_bcast(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return ori_schema.empty_table()
            nodes_s, degs_s = ray.get(deg_ref)
            a = np.asarray(t.column("a").to_pylist(), dtype=np.int64)
            b = np.asarray(t.column("b").to_pylist(), dtype=np.int64)
            return orient_arrays(a, b, degs_s[np.searchsorted(nodes_s, a)],
                                 degs_s[np.searchsorted(nodes_s, b)])

        oriented = edges.map_batches(orient_bcast, batch_format="pyarrow")
    else:
        from text_to_graph_ray.functions.dedup import join_partitions_for

        deg_b = deg.map_batches(
            lambda t: pa.table({"node_b": t.column("node"), "db": t.column("d")}) if t.num_rows
            else pa.schema([("node_b", pa.int64()), ("db", pa.int64())]).empty_table(),
            batch_format="pyarrow",
        )
        j = edges.join(deg, join_type="inner", num_partitions=join_partitions_for(),
                       on=("a",), right_on=("node",), partition_size_hint=16 << 20)
        j = j.join(deg_b, join_type="inner", num_partitions=join_partitions_for(),
                   on=("b",), right_on=("node_b",), partition_size_hint=16 << 20)

        def orient_joined(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return ori_schema.empty_table()
            a = np.asarray(t.column("a").to_pylist(), dtype=np.int64)
            b = np.asarray(t.column("b").to_pylist(), dtype=np.int64)
            da = np.asarray(t.column("d").to_pylist(), dtype=np.int64)
            db = np.asarray(t.column("db").to_pylist(), dtype=np.int64)
            return orient_arrays(a, b, da, db)

        oriented = j.map_batches(orient_joined, batch_format="pyarrow")

    def edge_partial(s_i: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> pa.Table:
        # the three edges of each closed wedge, id-canonicalized, pre-counted
        ea = np.concatenate([np.minimum(s_i, lo), np.minimum(s_i, hi), lo])
        eb = np.concatenate([np.maximum(s_i, lo), np.maximum(s_i, hi), hi])
        if len(ea) and int(eb.max()) < 2**31 and int(ea.min()) >= 0:
            key = (ea.astype(np.uint64) << np.uint64(32)) | eb.astype(np.uint64)
            uk, cnt = np.unique(key, return_counts=True)
            ea_u = (uk >> np.uint64(32)).astype(np.int64)
            eb_u = (uk & np.uint64(0xFFFFFFFF)).astype(np.int64)
            return pa.table({"a": pa.array(ea_u), "b": pa.array(eb_u),
                             "cnt": pa.array(cnt.astype(np.int64))}, schema=part_schema)
        import pandas as pd

        g = pd.DataFrame({"a": ea, "b": eb}).groupby(["a", "b"], sort=False).size().reset_index(name="cnt")
        return pa.table({"a": pa.array(g["a"], type=pa.int64()), "b": pa.array(g["b"], type=pa.int64()),
                         "cnt": pa.array(g["cnt"], type=pa.int64())}, schema=part_schema)

    def wedge_arrays(df):
        return _center_pair_arrays(
            df["s"].to_numpy(dtype=np.int64), df["t"].to_numpy(dtype=np.int64)
        )

    n_edges = edges.count()
    max_id = None
    if n_edges and n_edges <= deg_broadcast_max:
        mx = [pc.max(t.column("b")).as_py() for t in ray.get(edges.to_arrow_refs()) if t.num_rows]
        max_id = max(mx) if mx else None
    mn_ok = True
    if max_id is not None:
        mns = [pc.min(t.column("a")).as_py() for t in ray.get(edges.to_arrow_refs()) if t.num_rows]
        mn_ok = bool(mns) and min(mns) >= 0
    if max_id is not None and max_id < 2**31 and mn_ok:
        eb_ = [t for t in ray.get(edges.to_arrow_refs()) if t.num_rows]
        et = pa.concat_tables(eb_)
        ea_ = et.column("a").to_numpy(zero_copy_only=False).astype(np.uint64)
        ebn = et.column("b").to_numpy(zero_copy_only=False).astype(np.uint64)
        edge_ref = ray.put(np.sort((ea_ << np.uint64(32)) | ebn))

        def wedges_support_bucket(df) -> pa.Table:
            if len(df) == 0:
                return part_schema.empty_table()
            w = wedge_arrays(df)
            if w is None:
                return part_schema.empty_table()
            s_i, lo, hi = w
            keys = (lo.astype(np.uint64) << np.uint64(32)) | hi.astype(np.uint64)
            es = ray.get(edge_ref)
            pos = np.minimum(np.searchsorted(es, keys), len(es) - 1)
            hit = es[pos] == keys
            if not hit.any():
                return part_schema.empty_table()
            return edge_partial(s_i[hit], lo[hit], hi[hit])

        partials = bucket_exchange(
            with_bucket(oriented, "s", num_buckets, in_schema=ori_schema),
            wedges_support_bucket, part_schema, num_buckets,
        )
    else:
        # side-tagged bucketed closing join (see triangle_counts for why not
        # Dataset.join), edge partials pre-counted per bucket
        wedge_schema = pa.schema([("s", pa.int64()), ("lo", pa.int64()), ("hi", pa.int64())])

        def wedges_per_bucket(df) -> pa.Table:
            if len(df) == 0:
                return wedge_schema.empty_table()
            w = wedge_arrays(df)
            if w is None:
                return wedge_schema.empty_table()
            s_i, lo, hi = w
            return pa.table({"s": pa.array(s_i, type=pa.int64()),
                             "lo": pa.array(lo, type=pa.int64()),
                             "hi": pa.array(hi, type=pa.int64())}, schema=wedge_schema)

        wedges = bucket_exchange(
            with_bucket(oriented, "s", num_buckets, in_schema=ori_schema),
            wedges_per_bucket, wedge_schema, num_buckets,
        )

        tag_schema = pa.schema([("lo", pa.int64()), ("hi", pa.int64()), ("s", pa.int64()), ("side", pa.int64())])

        def tag(side: int, lo_col: str, hi_col: str, s_col: str | None):
            def f(t: pa.Table) -> pa.Table:
                if t.num_rows == 0:
                    return tag_schema.empty_table()
                svals = t.column(s_col) if s_col else pa.nulls(t.num_rows, type=pa.int64())
                return pa.table({
                    "lo": t.column(lo_col), "hi": t.column(hi_col), "s": svals,
                    "side": pa.array(np.full(t.num_rows, side), type=pa.int64()),
                }, schema=tag_schema)

            return f

        unioned = edges.map_batches(tag(0, "a", "b", None), batch_format="pyarrow").union(
            wedges.map_batches(tag(1, "lo", "hi", "s"), batch_format="pyarrow")
        )

        def close_bucket(df) -> pa.Table:
            if len(df) == 0:
                return part_schema.empty_table()
            e = df[df["side"] == 0]
            w = df[df["side"] == 1]
            if len(e) == 0 or len(w) == 0:
                return part_schema.empty_table()
            m = w.merge(e[["lo", "hi"]], on=["lo", "hi"], how="inner")
            if len(m) == 0:
                return part_schema.empty_table()
            return edge_partial(m["s"].to_numpy(dtype=np.int64),
                                m["lo"].to_numpy(dtype=np.int64),
                                m["hi"].to_numpy(dtype=np.int64))

        partials = bucket_exchange(
            with_bucket(unioned, ["lo", "hi"], num_buckets, in_schema=tag_schema),
            close_bucket, part_schema, num_buckets,
        )

    return bucketed_aggregate(partials, ["a", "b"], {"sup": ("cnt", "sum")},
                              out_schema=sup_schema, num_buckets=num_buckets,
                              in_schema=part_schema)


def ktruss_bounded(edges_ds, k: int = 4, max_rounds: int = 3, src_col: str = "src",
                   dst_col: str = "dst", num_buckets: int = 64,
                   deg_broadcast_max: int = 5_000_000, stats: dict | None = None):
    """Bounded k-truss peeling: ``max_rounds`` iterations of "drop every edge
    whose triangle support < k-2" — the standard cohesive-subgraph /
    community-core refinement one step stronger than k-core (every edge in a
    k-truss is in >= k-2 triangles within the subgraph). Exactly
    ``max_rounds`` peels are applied, stopping EARLY only at a fixpoint (no
    edge removed — further peels are no-ops), so the semantics stay
    unrolled-SQL-expressible; at fixpoint the output is the true k-truss.

    Scale shape per round: one ``_edge_support`` pass (degree-oriented wedge
    enumeration, Σ outdeg² with outdeg O(√m); only (a, b, cnt) combiner
    partials cross the exchanges) followed by an answer-sized filter — the
    edge set only shrinks. The driver holds per-round COUNTS only
    (``stats["ktruss_rounds"]`` records them). Output: (a, b, sup) for the
    surviving edges with support recomputed WITHIN the surviving subgraph
    (sup = 0 surfaces real if the round budget ran out before fixpoint),
    sorted by (a, b). ``k < 3`` raises: a support threshold ``k - 2 <= 0``
    would peel no edge yet drop every triangle-free edge, which has no
    support row.
    """
    if k < 3:
        raise ValueError(f"ktruss_bounded needs k >= 3 (every k-truss edge is in >= k-2 triangles), got k={k}")
    import pyarrow.compute as pc

    from text_to_graph_ray.functions.agg import distinct_rows
    from text_to_graph_ray.functions.joins import keyed_full_outer
    from text_to_graph_ray.util import compact_nonempty, sort_coalesced

    edge_schema = pa.schema([("a", pa.int64()), ("b", pa.int64())])
    out_schema = pa.schema([("a", pa.int64()), ("b", pa.int64()), ("sup", pa.int64())])

    def canon(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return edge_schema.empty_table()
        s, d = pc.cast(t.column(src_col), pa.int64()), pc.cast(t.column(dst_col), pa.int64())
        out = pa.table({"a": pc.min_element_wise(s, d), "b": pc.max_element_wise(s, d)})
        return out.filter(pc.not_equal(out.column("a"), out.column("b")))

    edges = compact_nonempty(distinct_rows(
        edges_ds.map_batches(canon, batch_format="pyarrow"), ["a", "b"], edge_schema
    ).materialize())
    n_edges = edges.count()
    rounds: list[int] = []
    fixpoint = False
    sup = None
    for _ in range(max_rounds):
        if n_edges == 0:
            fixpoint = True
            break
        sup = _edge_support(edges, num_buckets=num_buckets,
                            deg_broadcast_max=deg_broadcast_max).materialize()

        def survivors_only(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return edge_schema.empty_table()
            keep = t.filter(pc.greater_equal(t.column("sup"), k - 2))
            return pa.table({"a": keep.column("a"), "b": keep.column("b")}, schema=edge_schema)

        pruned = compact_nonempty(
            sup.map_batches(survivors_only, batch_format="pyarrow").materialize()
        )
        n_pruned = pruned.count()
        rounds.append(n_pruned)
        if n_pruned == n_edges:  # fixpoint: the support table IS final
            fixpoint = True
            break
        edges, n_edges = pruned, n_pruned

    if stats is not None:
        stats["ktruss_rounds"] = rounds
        stats["ktruss_fixpoint"] = fixpoint
    import ray.data as rd

    if n_edges == 0:
        return rd.from_arrow(out_schema.empty_table())
    if fixpoint and sup is not None:
        # every surviving edge has a support row >= k-2 > 0: reuse it
        final = sup.map_batches(
            lambda t: t.filter(pc.greater_equal(t.column("sup"), k - 2)).select(["a", "b", "sup"])
            if t.num_rows else out_schema.empty_table(),
            batch_format="pyarrow",
        )
        return sort_coalesced(final, ["a", "b"])
    # round budget exhausted mid-peel: recompute support within the final
    # edge set and LEFT-join it back (zero-support edges surface with sup=0)
    sup_final = _edge_support(edges, num_buckets=num_buckets,
                              deg_broadcast_max=deg_broadcast_max)
    tagged = edges.map_batches(
        lambda t: t.append_column("one", pa.array(np.ones(t.num_rows, dtype=np.int64)))
        if t.num_rows else pa.schema([("a", pa.int64()), ("b", pa.int64()),
                                      ("one", pa.int64())]).empty_table(),
        batch_format="pyarrow",
    )
    fo = keyed_full_outer(tagged, sup_final, keys=["a", "b"], left_vals=["one"],
                          right_vals=["sup"], num_buckets=num_buckets)

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        t = t.filter(pc.is_valid(t.column("one")))  # LEFT join semantics
        s = pc.coalesce(t.column("sup"), pa.scalar(0.0))
        return pa.table({"a": t.column("a"), "b": t.column("b"),
                         "sup": pc.cast(pc.round(s), pa.int64())}, schema=out_schema)

    return sort_coalesced(fo.map_batches(finish, batch_format="pyarrow"), ["a", "b"])


def minimum_spanning_forest(edges_ds, max_rounds: int = 12, src_col: str = "src",
                            dst_col: str = "dst", w_col: str = "w",
                            num_buckets: int = 64, stats: dict | None = None):
    """Distributed Borůvka minimum spanning forest: per round every
    component selects its minimum cross edge under the TOTAL order
    (w, a, b) — the lexicographic tie-break makes the forest unique and
    equal to Kruskal's under the same order, so a naive single-threaded
    Kruskal is an exact oracle. Components at least halve per round, so
    ``max_rounds`` = 12 covers 4096 components per survivor; a graph whose
    forest is still incomplete past the budget fails LOUDLY (the
    connected-components max_rounds convention) rather than returning a
    partial forest silently.

    Scale shape per round: the node-sized component map attaches to both
    endpoints via two guarded ``lookup_join``s (broadcast under the row
    cap, bucketed merge past it); candidate min-edges ride ONE comp-keyed
    bucket exchange where each bucket pre-reduces to one row per component
    (never raw edges); the forest only grows by <= #components edges per
    round. Parallel input edges collapse to their min-(w, a, b)
    representative first (one (a, b)-keyed exchange).

    Returns (a, b, w) of the forest, sorted by (a, b)."""
    import pyarrow.compute as pc
    import ray.data as rd

    from text_to_graph_ray.functions.agg import BUCKET_COL, bucket_exchange, with_bucket
    from text_to_graph_ray.functions.joins import lookup_join
    from text_to_graph_ray.util import compact_nonempty, sort_coalesced

    e_schema = pa.schema([("a", pa.int64()), ("b", pa.int64()), ("w", pa.int64())])

    def canon(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return e_schema.empty_table()
        s, d = pc.cast(t.column(src_col), pa.int64()), pc.cast(t.column(dst_col), pa.int64())
        out = pa.table({"a": pc.min_element_wise(s, d), "b": pc.max_element_wise(s, d),
                        "w": pc.cast(t.column(w_col), pa.int64())})
        return out.filter(pc.not_equal(out.column("a"), out.column("b")))

    def min_per_pair(df) -> pa.Table:
        if len(df) == 0:
            return e_schema.empty_table()
        df = df.drop(columns=[BUCKET_COL]).sort_values(["a", "b", "w"], kind="mergesort")
        g = df.groupby(["a", "b"], as_index=False, sort=False).first()
        return pa.table({"a": pa.array(g["a"], type=pa.int64()),
                         "b": pa.array(g["b"], type=pa.int64()),
                         "w": pa.array(g["w"], type=pa.int64())}, schema=e_schema)

    # collapse parallel edges: one (a, b)-keyed exchange with a per-batch
    # combiner (drop_duplicates-style min inside the same kernel)
    edges = compact_nonempty(bucket_exchange(
        with_bucket(edges_ds.map_batches(canon, batch_format="pyarrow"), ["a", "b"],
                    num_buckets, in_schema=e_schema),
        min_per_pair, e_schema, num_buckets,
    ).materialize())
    if edges.count() == 0:
        return rd.from_arrow(e_schema.empty_table())

    comp_schema = pa.schema([("node", pa.int64()), ("comp", pa.int64())])

    def self_comps(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return comp_schema.empty_table()
        nodes = pc.unique(pa.concat_arrays([t.column("a").combine_chunks(),
                                            t.column("b").combine_chunks()]))
        return pa.table({"node": nodes, "comp": nodes}, schema=comp_schema)

    from text_to_graph_ray.functions.agg import distinct_rows

    comps = distinct_rows(edges.map_batches(self_comps, batch_format="pyarrow"),
                          ["node", "comp"], comp_schema, num_buckets=num_buckets)
    forest = rd.from_arrow(e_schema.empty_table())
    rounds: list[int] = []
    done = False
    for _ in range(max_rounds):
        ca = comps.map_batches(
            lambda t: pa.table({"node": t.column("node"), "ca": t.column("comp")})
            if t.num_rows else pa.schema([("node", pa.int64()), ("ca", pa.int64())]).empty_table(),
            batch_format="pyarrow")
        cb = comps.map_batches(
            lambda t: pa.table({"node": t.column("node"), "cb": t.column("comp")})
            if t.num_rows else pa.schema([("node", pa.int64()), ("cb", pa.int64())]).empty_table(),
            batch_format="pyarrow")
        lab = lookup_join(edges, ca, key="a", right_key="node", cols=["ca"])
        lab = lookup_join(lab, cb, key="b", right_key="node", cols=["cb"])
        cross_schema = pa.schema([("a", pa.int64()), ("b", pa.int64()), ("w", pa.int64()),
                                  ("ca", pa.int64()), ("cb", pa.int64())])

        def cross_only(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return cross_schema.empty_table()
            k = t.filter(pc.not_equal(t.column("ca"), t.column("cb")))
            return k.select(["a", "b", "w", "ca", "cb"])

        cross = compact_nonempty(lab.map_batches(cross_only, batch_format="pyarrow").materialize())
        n_cross = cross.count()
        if n_cross == 0:
            done = True
            break

        # each component's min (w, a, b) cross edge: symmetrize to (comp,
        # w, a, b), pre-reduce per batch AND per bucket — one row per comp
        cand_schema = pa.schema([("comp", pa.int64()), ("w", pa.int64()),
                                 ("a", pa.int64()), ("b", pa.int64())])

        def symm(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return cand_schema.empty_table()
            import pandas as pd

            df = pd.DataFrame({
                "comp": np.concatenate([t.column("ca").to_numpy(zero_copy_only=False),
                                        t.column("cb").to_numpy(zero_copy_only=False)]),
                "w": np.tile(t.column("w").to_numpy(zero_copy_only=False), 2),
                "a": np.tile(t.column("a").to_numpy(zero_copy_only=False), 2),
                "b": np.tile(t.column("b").to_numpy(zero_copy_only=False), 2),
            }).sort_values(["comp", "w", "a", "b"], kind="mergesort")
            g = df.groupby("comp", as_index=False, sort=False).first()
            return pa.table({f.name: pa.array(g[f.name], type=f.type) for f in cand_schema},
                            schema=cand_schema)

        def min_per_comp(df) -> pa.Table:
            if len(df) == 0:
                return cand_schema.empty_table()
            df = df.drop(columns=[BUCKET_COL]).sort_values(["comp", "w", "a", "b"], kind="mergesort")
            g = df.groupby("comp", as_index=False, sort=False).first()
            return pa.table({f.name: pa.array(g[f.name], type=f.type) for f in cand_schema},
                            schema=cand_schema)

        cand = bucket_exchange(
            with_bucket(cross.map_batches(symm, batch_format="pyarrow"), "comp",
                        num_buckets, in_schema=cand_schema),
            min_per_comp, cand_schema, num_buckets,
        )
        # two comps may pick the same edge: dedup before growing the forest
        sel = distinct_rows(cand.map_batches(
            lambda t: t.select(["a", "b", "w"]) if t.num_rows else e_schema.empty_table(),
            batch_format="pyarrow"), ["a", "b", "w"], e_schema, num_buckets=num_buckets)
        forest = compact_nonempty(forest.union(sel).materialize())
        rounds.append(forest.count())
        # recompute components over the grown forest (guarded union-find /
        # min-label inside)
        cc = connected_components(forest, a_col="a", b_col="b")
        comps = cc.map_batches(
            lambda t: pa.table({"node": t.column("node"), "comp": t.column("component")},
                               schema=comp_schema)
            if t.num_rows else comp_schema.empty_table(),
            batch_format="pyarrow").materialize()

    if stats is not None:
        stats["mst_rounds"] = rounds
    if not done:
        raise ValueError(
            f"minimum_spanning_forest: {max_rounds} Borůvka rounds did not exhaust the "
            "cross edges — raise max_rounds (components at least halve per round)"
        )
    return sort_coalesced(forest, ["a", "b"])


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
    are repo-count-sized and never become a driver list (vs ``bfs_depths``,
    whose seeds are query entry points by contract). Each round then costs
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

"""Round-5 part-10e operator scale smoke: deterministic distributed synthetic
inputs, walls are smoke-scale proofs on a shared host (not steady-state
benchmarks). Run: python -u scripts/ops_scale_check8.py [num_cpus]

Covers:
- forest_depths on a 2M-node forest of 10k roots x 3-ary levels (depth ~5):
  distributed root discovery + one streamed guarded semi pass per level;
  exchanges are node-set-sized, wall grows with DEPTH not width.
- packed-provenance explode (the kg_repo_triples kernel) at 10M rows x ~3
  packed repos each: pure-Arrow split/flatten + per-batch value_counts
  combiner; the exchange carries repo-count-sized partials.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd


def log(msg):
    print(msg, flush=True)


def gen_range(n, parts, fn):
    bounds = np.linspace(0, n, parts + 1, dtype=np.int64)
    items = [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]

    def make(batch):
        out = [fn(a, b) for a, b in zip(batch["a"].to_pylist(), batch["b"].to_pylist())]
        return pa.concat_tables(out)

    src = rd.from_arrow(pa.table({"a": pa.array([a for a, _ in items], type=pa.int64()),
                                  "b": pa.array([b for _, b in items], type=pa.int64())}))
    return src.repartition(len(items)).map_batches(make, batch_format="pyarrow", batch_size=1)


def main():
    cpus = int(sys.argv[1]) if len(sys.argv) > 1 else 32
    ray.init(address="local", num_cpus=cpus, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from text_to_graph_ray.functions.agg import bucketed_aggregate
    from text_to_graph_ray.functions.graph import forest_depths

    # --- forest_depths: 2M-node forest, 10k roots, branching 3 -------------
    N_NODE = 2_000_000

    def tree_chunk(a, b):
        child = np.arange(max(a, 10_000), b, dtype=np.int64)  # first 10k are roots
        parent = (child - 10_000) // 3  # dense 3-ary forest over prior nodes
        return pa.table({"src": pa.array(parent), "dst": pa.array(child)})

    fedges = gen_range(N_NODE, 64, tree_chunk).materialize()
    t0 = time.monotonic()
    depths = forest_depths(fedges, max_depth=40).materialize()
    n = depths.count()
    import pyarrow.compute as pc2
    md = max(r["depth"] for r in depths.map_batches(
        lambda t: pa.table({"depth": [int(pc2.max(t.column('depth')).as_py() or 0)]}),
        batch_format="pyarrow").take_all())
    log(f"forest_depths 2M nodes: {time.monotonic()-t0:.1f}s nodes={n} max_depth={md}")

    # --- packed explode: 10M rows x ~3 repos -------------------------------
    N_ROW, N_REPO = 10_000_000, 5_000

    def packed_chunk(a, b):
        i = np.arange(a, b, dtype=np.int64)
        r1 = (i * 48271) % N_REPO
        r2 = (i * 69621 + 7) % N_REPO
        r3 = (i * 16807 + 13) % N_REPO
        arr = [f"repo{x}|repo{y}|repo{z}" for x, y, z in zip(r1, r2, r3)]
        return pa.table({"repos_packed": pa.array(arr, type=pa.string())})

    rows = gen_range(N_ROW, 128, packed_chunk).materialize()
    part_schema = pa.schema([("repo", pa.string()), ("n_triples", pa.int64())])
    import pyarrow.compute as pc

    def explode_count(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        repos = pc.list_flatten(pc.split_pattern(t.column("repos_packed").combine_chunks(), "|"))
        vc = repos.value_counts()
        return pa.table({"repo": vc.field("values"),
                         "n_triples": vc.field("counts").cast(pa.int64())}, schema=part_schema)

    t0 = time.monotonic()
    out = bucketed_aggregate(rows.map_batches(explode_count, batch_format="pyarrow"), "repo",
                             {"n_triples": ("n_triples", "sum")},
                             out_schema=part_schema, in_schema=part_schema)
    n_repo = out.count()
    log(f"packed explode 10M rows: {time.monotonic()-t0:.1f}s repos={n_repo}")

    ray.shutdown()


if __name__ == "__main__":
    main()

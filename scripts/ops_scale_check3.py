"""Round-5 new-operator scale smoke: deterministic distributed synthetic
inputs, walls are smoke-scale proofs on a shared host (not steady-state
benchmarks). Run: python -u scripts/ops_scale_check3.py [num_cpus]

Covers:
- lookup_join at 10M facts x 200k dims, broadcast AND fallback plans.
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd


def log(msg):
    print(msg, flush=True)


def gen_range(n, parts, fn):
    """Distributed deterministic generator: fn(start, stop) -> pa.Table."""
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
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=cpus, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    # --- lookup_join 10M x 200k ------------------------------------------
    NF, ND = 10_000_000, 200_000

    def facts_fn(a, b):
        i = np.arange(a, b, dtype=np.int64)
        return pa.table({"k": pa.array(i % (2 * ND), type=pa.int64()),  # half miss
                         "v": pa.array(i, type=pa.int64())})

    def dim_fn(a, b):
        i = np.arange(a, b, dtype=np.int64)
        return pa.table({"dk": pa.array(i, type=pa.int64()),
                         "w": pa.array(i * 7, type=pa.int64())})

    from text_to_graph_ray.functions.joins import lookup_join

    facts = gen_range(NF, 64, facts_fn).materialize()
    dim = gen_range(ND, 8, dim_fn).materialize()
    for tag, bmax in (("broadcast", 5_000_000), ("fallback", 0)):
        t0 = time.time()
        out = lookup_join(facts, dim, key="k", right_key="dk", cols=["w"], broadcast_max=bmax).materialize()
        n = out.count()
        matched = sum(
            t.filter(pc.is_valid(t.column("w"))).num_rows for t in ray.get(out.to_arrow_refs()) if t.num_rows
        )
        log(f"lookup_join[{tag}] {NF/1e6:.0f}M x {ND/1e3:.0f}k: {time.time()-t0:.1f}s "
            f"rows={n} matched={matched} (expect {NF//2})")
        assert n == NF and matched == NF // 2

    log("ops_scale_check3: ALL OK")
    ray.shutdown()


if __name__ == "__main__":
    main()

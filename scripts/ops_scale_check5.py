"""Round-5 part-6 operator scale smoke: deterministic distributed synthetic
inputs, walls are smoke-scale proofs on a shared host (not steady-state
benchmarks). Run: python -u scripts/ops_scale_check5.py [num_cpus]

Covers:
- mixture_plan(temperature=True) at 400k docs / 200 sources.
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
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=cpus, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    # --- temperature mixture at 400k docs / 200 sources --------------------
    from text_to_graph_ray.functions.sample import mixture_plan

    def src_chunk(a, b):
        ids = np.arange(a, b, dtype=np.int64)
        src = (ids * 31) % 200
        texts = [" ".join(["tok"] * int(20 + (i % 50))) for i in ids]
        return pa.table({"source": pa.array(np.char.add("s", src.astype(str)), type=pa.string()),
                         "text": pa.array(texts, type=pa.string())})

    sdocs = gen_range(400_000, 64, src_chunk).materialize()
    t0 = time.monotonic()
    mx = mixture_plan(sdocs, budget_tokens=10_000_000, by="source", temperature=True).to_pandas()
    w = time.monotonic() - t0
    assert int(mx["alloc_tokens"].sum()) == 10_000_000
    log(f"mixture_plan(temperature) 400k docs/200 sources: {w:.1f}s (allocs sum exactly)")

    ray.shutdown()


if __name__ == "__main__":
    main()

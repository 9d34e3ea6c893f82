"""Round-5 operator scale smoke: deterministic distributed synthetic
inputs, walls are smoke-scale proofs on a shared host (not steady-state
benchmarks). Run: python -u scripts/ops_scale_check4.py [num_cpus]

Covers minhash_cross_pairs at 100k x 100k docs (fuzzy decontamination
shape: only cross-side pairs generate).
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

    from text_to_graph_ray.functions.dedup import minhash_cross_pairs

    N_SIDE = 100_000
    VOCAB = np.array([f"w{j}" for j in range(5000)])

    def corpus_chunk(offset):
        def f(a, b):
            ids = np.arange(a, b, dtype=np.int64)
            texts = []
            for i in ids:
                base = (i * 2654435761) % 50_000  # ~2x collision rate across sides
                idx = (base * 7919 + np.arange(60) * (base % 89 + 3)) % len(VOCAB)
                texts.append(" ".join(VOCAB[idx]))
            return pa.table({"doc_id": pa.array(ids + offset, type=pa.int64()),
                             "text": pa.array(texts, type=pa.string())})
        return f

    left = gen_range(N_SIDE, 64, corpus_chunk(0)).materialize()
    right = gen_range(N_SIDE, 64, corpus_chunk(0)).materialize()  # same generator: every doc has a cross twin
    stats2: dict = {}
    t0 = time.monotonic()
    pairs = minhash_cross_pairs(left, right, threshold=0.5, stats=stats2)
    n_pairs = pairs.count()
    w = time.monotonic() - t0
    assert n_pairs > 0
    log(f"minhash_cross_pairs 100k x 100k: {w:.1f}s ({n_pairs} pairs, "
        f"dropped={stats2.get('lsh_pairs_dropped')})")

    ray.shutdown()


if __name__ == "__main__":
    main()

"""Round-5 part-10 operator scale smoke: deterministic distributed synthetic
inputs, walls are smoke-scale proofs on a shared host (not steady-state
benchmarks). Run: python -u scripts/ops_scale_check7.py [num_cpus]

Covers:
- naive_bayes_classify at 400k docs / 5 synthetic classes: model stays
  distributed (pair combiner -> token pivot), classification is one
  lookup_join + doc-keyed sum.
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

    from text_to_graph_ray.functions.text import naive_bayes_classify

    # --- Naive Bayes: 400k docs / 5 classes --------------------------------
    CLS = ["aa", "bb", "cc", "dd", "ee"]
    VOC = np.array([f"t{j}" for j in range(20_000)])

    def doc_chunk(a, b):
        ids = np.arange(a, b, dtype=np.int64)
        texts, labs = [], []
        for i in ids:
            c = int((i // 7) % 5)  # NOT i%5: the train/test split is id%5
            L = 40 + (i * 13) % 60
            idx = (i * 104729 + np.arange(L) * ((i % 89) + 2)) % 4000 + c * 4000
            texts.append(" ".join(VOC[idx]))
            labs.append(CLS[c])
        return pa.table({"doc_id": pa.array(ids), "lang": pa.array(labs, type=pa.string()),
                         "text": pa.array(texts, type=pa.string())})

    docs = gen_range(400_000, 128, doc_chunk).materialize()
    t0 = time.monotonic()
    nb = naive_bayes_classify(docs)
    acc = nb.map_batches(lambda t: pa.table({"c": [int(pa.compute.sum(t.column("correct")).as_py() or 0)],
                                             "n": [t.num_rows]}), batch_format="pyarrow").to_pandas()
    log(f"naive_bayes 400k docs: {time.monotonic()-t0:.1f}s acc={acc['c'].sum()}/{acc['n'].sum()}")

    ray.shutdown()


if __name__ == "__main__":
    main()

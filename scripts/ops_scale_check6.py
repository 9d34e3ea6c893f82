"""Round-5 part-8 operator scale smoke: deterministic distributed synthetic
inputs, walls are smoke-scale proofs on a shared host (not steady-state
benchmarks). Run: python -u scripts/ops_scale_check6.py [num_cpus]

Covers:
- bpe_encode_counts at 400k docs / ~36M tokens under a 40-merge table
  learned from the same corpus: the encode pass is embarrassingly
  parallel; the per-actor distinct-word memo means each of the 50k words
  is encoded at most once per worker process.
- gopher_rules at 1.6M docs: zero exchanges, one vectorized pass.
- bm25_topk at 400k docs / 4 terms: stats pass + score pass, both
  streamed; only (T+2)-scalar partials and k-row combiner outputs move.
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


N_WORDS = 50_000
VOCAB = np.array([f"w{j}x{j % 7}" for j in range(N_WORDS)])
# every 11th token is a stopword so the gopher stop rule is live
STOPCYCLE = np.array(["the", "a", "of", "to", "and", "in", "is", "on"])


def doc_chunk(a, b):
    ids = np.arange(a, b, dtype=np.int64)
    texts = []
    for i in ids:
        L = 30 + (i * 31) % 90
        idx = (i * 7919 + np.arange(L) * ((i % 97) + 3)) % N_WORDS
        toks = VOCAB[idx].copy()
        toks[::11] = STOPCYCLE[(i + np.arange(len(toks[::11]))) % 8]
        texts.append(" ".join(toks))
    return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                     "text": pa.array(texts, type=pa.string())})


def main():
    cpus = int(sys.argv[1]) if len(sys.argv) > 1 else 32
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=cpus, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from text_to_graph_ray.functions.bpe import bpe_encode_counts, bpe_train
    from text_to_graph_ray.functions.text import bm25_topk, gopher_rules

    # --- 1. BPE encode at 400k docs ----------------------------------------
    N_DOCS = 400_000
    docs = gen_range(N_DOCS, 64, doc_chunk).materialize()
    merges = [(r["left"], r["right"]) for r in bpe_train(docs, n_merges=40).take_all()]
    t0 = time.monotonic()
    enc = bpe_encode_counts(docs, merges).materialize()
    tot = enc.sum(["n_words", "n_subwords"])
    w = time.monotonic() - t0
    assert enc.count() == N_DOCS
    assert tot["sum(n_subwords)"] >= tot["sum(n_words)"]
    log(f"bpe_encode 400k docs / {tot['sum(n_words)'] / 1e6:.1f}M tokens under 40 merges: "
        f"{w:.1f}s ({tot['sum(n_subwords)'] / 1e6:.1f}M subwords)")

    # --- 2. gopher_rules at 1.6M docs ---------------------------------------
    big = gen_range(1_600_000, 128, doc_chunk).materialize()
    t0 = time.monotonic()
    g = big.map_batches(gopher_rules, batch_format="pyarrow").materialize()
    passed = g.sum("passed")
    w = time.monotonic() - t0
    assert 0 < passed < 1_600_000
    log(f"gopher_rules 1.6M docs: {w:.1f}s ({passed} passed, every rule live)")

    # --- 3. bm25 at 400k docs ------------------------------------------------
    terms = [str(VOCAB[3]), str(VOCAB[777]), str(VOCAB[4242]), "the"]
    t0 = time.monotonic()
    top = bm25_topk(docs, terms, k=10).to_pandas()
    w = time.monotonic() - t0
    assert len(top) == 10 and top["score"].is_monotonic_decreasing
    log(f"bm25_topk 400k docs / 4 terms: {w:.1f}s (top score {top['score'].iloc[0]:.3f})")

    ray.shutdown()


if __name__ == "__main__":
    main()

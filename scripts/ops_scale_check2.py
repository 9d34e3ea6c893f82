"""Scale smoke for corpus-level segment dedup.
Deterministic synthetic inputs generated DISTRIBUTED from the row id; the
driver never materializes an input. Usage:

    python -u scripts/ops_scale_check2.py [num_cpus]

Smoke-scale proofs (shared host — not steady-state benchmarks) that nothing
collects a corpus on the driver or degenerates at 100-1000x the gate's row
counts. Records go to NOTES.md by hand."""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np
import pyarrow as pa


def _mix(ids: np.ndarray) -> np.ndarray:
    z = (ids.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)) * np.uint64(0xBF58476D1CE4E5B9)
    return z ^ (z >> np.uint64(27))


def synth_docs(n_docs: int, vocab: int = 5000, toks: int = 64, dup_every: int = 50):
    """Docs of ``toks`` tokens; every ``dup_every``-th doc repeats doc 0's
    first 16-token segment verbatim so segment dedup has real work."""
    import ray.data as rd

    def gen(b: pa.Table) -> pa.Table:
        ids = b.column("id").to_numpy().astype(np.int64)
        texts = []
        for i in ids:
            z = int(_mix(np.array([i], dtype=np.int64))[0])
            words = [f"w{(z + j * 2654435761) % vocab}" for j in range(toks)]
            if i % dup_every == 0 and i != 0:
                words[:16] = [f"w{(1 + j * 2654435761) % vocab}" for j in range(16)]
            texts.append(" ".join(words))
        return pa.table({"doc_id": pa.array(ids, type=pa.int64()), "text": pa.array(texts)})

    return rd.range(n_docs, override_num_blocks=max(64, n_docs // 20_000)).map_batches(
        gen, batch_format="pyarrow"
    )


def main():
    import ray
    from ray.data import DataContext

    ncpu = int(sys.argv[1]) if len(sys.argv) > 1 else 32
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=ncpu, include_dashboard=False, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False

    from text_to_graph_ray.functions.text import segment_dedup

    # segment dedup: 400k docs x 64 tokens (~25.6M tokens, 1.6M segments)
    docs = synth_docs(400_000).materialize()
    t0 = time.monotonic()
    out = segment_dedup(docs)
    n = out.count()
    removed = docs.count() * 4 - int(out.sum("n_kept"))  # distributed scalar fold, no driver collect
    print(f"segment_dedup: 400k docs -> {n} out docs, {removed} segments removed, "
          f"{time.monotonic() - t0:.1f}s", flush=True)

    ray.shutdown()


if __name__ == "__main__":
    main()

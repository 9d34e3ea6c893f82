"""Scale smoke for the keyed full outer join: multi-million-row
deterministic synthetic inputs generated DISTRIBUTED (from the row id inside
map_batches — the driver never materializes an input), wall-clock per op at
the session's CPU count. Usage:

    python -u scripts/ops_scale_check.py [num_cpus]

Records go to NOTES.md by hand. These are smoke-scale proofs that nothing in
the new operators collects a corpus on the driver or degenerates at row
counts 1000x the gate's — not steady-state benchmarks (host is shared)."""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import numpy as np
import pyarrow as pa


def main():
    import ray
    import ray.data as rd
    from ray.data import DataContext

    ncpu = int(sys.argv[1]) if len(sys.argv) > 1 else 32
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=ncpu, include_dashboard=False, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    walls = {}

    # ---- full outer of two 2M-row keyed aggregates
    def gen_side(name, mod):
        def f(b: pa.Table) -> pa.Table:
            ids = b.column("id").to_numpy().astype(np.int64)
            return pa.table({"k": pa.array(ids * mod, type=pa.int64()), name: pa.array(ids % 97, type=pa.int64())})

        return rd.range(2_000_000, override_num_blocks=16).map_batches(f, batch_format="pyarrow")

    from text_to_graph_ray.functions.joins import keyed_full_outer

    t0 = time.monotonic()
    n = keyed_full_outer(gen_side("lv", 2), gen_side("rv", 3), "k", "lv", "rv").count()
    walls["full_outer_2Mx2M"] = (round(time.monotonic() - t0, 1), n)

    for k, (w, n) in walls.items():
        print(f"{k}: {w}s rows={n}")
    ray.shutdown()


if __name__ == "__main__":
    main()

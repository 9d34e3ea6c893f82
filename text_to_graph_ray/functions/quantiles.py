"""Exact distributed quantiles over a numeric column.

Approximate sketches (t-digest, GK) are the textbook answer at scale, but
they can't be oracle-checked value-exactly — and Ray Data's distributed sort
already gives an EXACT answer with O(#blocks) driver work: sort the single
pruned column (the one all-to-all this operator needs), collect per-block
ROW COUNTS as metadata, locate each target's global index in the block
prefix-sum, and fetch only the handful of rows the quantiles land on. No
block leaves the object store except the (tiny) probed slices.

Semantics match DuckDB exactly (probed empirically, tests assert):
* ``disc``  -> the element at index ``ceil(q*n) - 1`` (clamped to [0, n-1]);
* ``cont``  -> linear interpolation at position ``(n-1)*q`` between the two
  neighbouring order statistics.

Scale note: the sort shuffles only the probed column (bytes = one column of
the input). For repeated quantile queries over the same column, sort once
and reuse — the function accepts a pre-sorted materialized dataset via
``presorted=True``.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa


def exact_quantiles(ds, col: str, qs: list[float], presorted: bool = False):
    """-> small pa.Table (q: float64, disc: float64, cont: float64), one row
    per requested quantile fraction, ordered as given."""
    import ray

    if not presorted:
        # drop NULLs before the sort: DuckDB's quantile_disc/quantile_cont
        # ignore NULLs, while Ray's sort would order them to one end and the
        # index probe could land on them (ADVICE r3). Callers passing
        # presorted=True own null-freedom as part of the pre-sort contract.
        import pyarrow.compute as pc

        ds = (
            ds.select_columns([col])
            .map_batches(lambda t: t.filter(pc.is_valid(t.column(col))), batch_format="pyarrow")
            .sort(col)
        )
    from text_to_graph_ray.util import block_rows

    blocks = block_rows(ds.materialize())
    refs = [r for r, _ in blocks]
    lens = [n for _, n in blocks]
    bases = []
    total = 0
    for length in lens:
        bases.append(total)
        total += length
    if total == 0:
        return pa.table(
            {
                "q": pa.array(qs, type=pa.float64()),
                "disc": pa.nulls(len(qs), type=pa.float64()),
                "cont": pa.nulls(len(qs), type=pa.float64()),
            }
        )

    # global indices each quantile needs: disc index + cont's two neighbours
    needed: set[int] = set()
    plans = []
    for q in qs:
        i_disc = min(max(math.ceil(q * total) - 1, 0), total - 1)
        pos = (total - 1) * q
        i_lo, i_hi = int(math.floor(pos)), int(math.ceil(pos))
        frac = pos - math.floor(pos)
        plans.append((i_disc, i_lo, i_hi, frac))
        needed.update((i_disc, i_lo, i_hi))

    # group needed global indices by owning block -> ONE probe per block hit
    by_block: dict[int, list[int]] = {}
    for g in sorted(needed):
        # find owning block (lens prefix): linear scan over O(#blocks) is fine
        b = 0
        while b + 1 < len(bases) and bases[b + 1] <= g:
            b += 1
        by_block.setdefault(b, []).append(g - bases[b])

    @ray.remote
    def probe(t: pa.Table, local_idxs: list[int]) -> list[float]:
        c = t.column(0)
        return [float(c[i].as_py()) for i in local_idxs]

    probe_refs = {b: probe.remote(refs[b], idxs) for b, idxs in by_block.items()}
    values: dict[int, float] = {}
    for b, idxs in by_block.items():
        got = ray.get(probe_refs[b])
        for local, v in zip(idxs, got):
            values[bases[b] + local] = v

    disc, cont = [], []
    for i_disc, i_lo, i_hi, frac in plans:
        disc.append(values[i_disc])
        lo, hi = values[i_lo], values[i_hi]
        # lo*(1-f) + hi*f, NOT lo + (hi-lo)*f: DuckDB's quantile_cont uses
        # the former and the two differ in the last ulp (probed empirically;
        # the bit-exact test in test_round3 pins it)
        cont.append(lo * (1.0 - frac) + hi * frac)
    return pa.table(
        {
            "q": pa.array([float(q) for q in qs], type=pa.float64()),
            "disc": pa.array(disc, type=pa.float64()),
            "cont": pa.array(cont, type=pa.float64()),
        }
    )


def grouped_quantiles_cont(ds, key: str, col: str, qs, key_type=None, num_buckets: int = 64):
    """EXACT per-group interpolated quantiles (SQL ``quantile_cont``): a
    keyed exact quantile is inherently a per-group sort, so this ships the
    raw (key, value) rows through ONE coarse-bucket exchange and interpolates
    vectorized per group — use ``sketch.grouped_quantile_sketch`` when an
    estimate is acceptable at scale (that one ships fixed-size blobs).

    Interpolation mirrors DuckDB: pos = q*(n-1); v = lo + (hi-lo)*frac;
    round(6) absorbs the one-ulp formula-association difference. NULLs are
    dropped per group on both engines. Returns (key, q, value) sorted."""
    import pandas as pd
    import pyarrow.compute as pc

    from text_to_graph_ray.functions.agg import BUCKET_COL, bucket_exchange, with_bucket
    from text_to_graph_ray.util import sort_coalesced

    key_type = key_type or pa.string()
    qs = [float(q) for q in qs]
    part_schema = pa.schema([(key, key_type), (col, pa.float64())])
    out_schema = pa.schema([(key, key_type), ("q", pa.float64()), ("value", pa.float64())])

    def keep(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return part_schema.empty_table()
        b = b.filter(pc.is_valid(b.column(col)))
        return pa.table(
            {key: b.column(key), col: pc.cast(b.column(col), pa.float64())}, schema=part_schema
        )

    def per_bucket(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_schema.empty_table()
        df = df.drop(columns=[BUCKET_COL])
        keys_out, q_out, v_out = [], [], []
        for kv, g in df.groupby(key, sort=False):
            v = np.sort(g[col].to_numpy())
            n = len(v)
            for q in qs:
                pos = q * (n - 1)
                idx = int(pos)
                frac = pos - idx
                val = v[idx] if frac == 0.0 else v[idx] + (v[idx + 1] - v[idx]) * frac
                keys_out.append(kv)
                q_out.append(q)
                v_out.append(round(float(val), 6))
        return pa.table(
            {
                key: pa.array(keys_out, type=key_type),
                "q": pa.array(q_out, type=pa.float64()),
                "value": pa.array(v_out, type=pa.float64()),
            },
            schema=out_schema,
        )

    pre = ds.map_batches(keep, batch_format="pyarrow", batch_size=None)
    out = bucket_exchange(
        with_bucket(pre, key, num_buckets, in_schema=part_schema), per_bucket, out_schema, num_buckets
    )
    return sort_coalesced(out, [key, "q"])

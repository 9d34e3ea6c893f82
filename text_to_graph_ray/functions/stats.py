"""Decomposable statistics: fixed-width histograms and integer-exact grouped
moments.

Each ships kilobyte-scale partials per block and folds them in the calling
process (the ``functions/sketch.py`` family shape), so wall time is the
read. Reference parity: the reference has no numeric analytics; this is part
of the beyond-reference training-data operator set.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa


def histogram_fixed(ds, col: str, nbins: int = 16):
    """Exact fixed-width histogram of a numeric column: one min/max scan,
    then per-block ``bincount`` partials folded on the driver (``nbins``
    ints per block cross the wire). NULL/NaN values are dropped (DuckDB
    aggregate semantics).

    Bin rule, mirrored IEEE-op-for-op in the SQL oracle:
    ``w = (max - min) / float(nbins)``;
    ``bin = min(floor((v - min) / w), nbins - 1)`` — the top edge closes the
    last bin. Raises (loudly) on a constant column: zero-width bins have no
    defined histogram.
    """
    import ray.data as rd
    from ray.data.aggregate import Max, Min

    agg = ds.aggregate(Min(col), Max(col))
    mn, mx = float(agg[f"min({col})"]), float(agg[f"max({col})"])
    if not (mx > mn):
        raise ValueError(f"histogram_fixed: degenerate range [{mn}, {mx}] for column {col!r}")
    w = (mx - mn) / float(nbins)

    schema = pa.schema([("bin", pa.int64()), ("cnt", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return schema.empty_table()
        v = t.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        v = v[~np.isnan(v)]
        if v.size == 0:
            return schema.empty_table()
        b = np.minimum(np.floor((v - mn) / w), nbins - 1).astype(np.int64)
        c = np.bincount(b, minlength=nbins)
        return pa.table(
            {"bin": pa.array(np.arange(nbins, dtype=np.int64)), "cnt": pa.array(c, type=pa.int64())},
            schema=schema,
        )

    rows = ds.map_batches(partial, batch_format="pyarrow").take_all()
    total = np.zeros(nbins, dtype=np.int64)
    for r in rows:
        total[r["bin"]] += r["cnt"]
    bins = np.nonzero(total)[0].astype(np.int64)
    lo = mn + bins.astype(np.float64) * w
    out = pa.table(
        {
            "bin": pa.array(bins),
            "lo": pa.array(lo, type=pa.float64()),
            "cnt": pa.array(total[bins], type=pa.int64()),
        }
    )
    return rd.from_arrow(out)


def grouped_moments_int(ds, key: str, x_col: str):
    """Grouped mean / sample stddev / skewness / excess kurtosis from
    integer-exact power sums (S1..S4) — the one-pass mergeable-moments
    shape: per-batch int64 partials, arbitrary-precision fold in the calling
    process.

    Contract: ``x`` is integral-valued (``rint`` on both engines) and each
    PER-BATCH power sum fits int64 (|x| <= 2000 holds comfortably at any
    batch size; the cross-block fold is exact Python ints). ``key`` is
    low-cardinality.

    Cross-engine float discipline: central-moment numerators are EXACT
    integers —
    ``A2 = n*S2 - S1^2`` (= n * sum((x-m)^2)),
    ``A3 = n^2*S3 - 3n*S1*S2 + 2*S1^3`` (= n^2 * sum((x-m)^3)),
    ``A4 = n^3*S4 - 4n^2*S1*S3 + 6n*S1^2*S2 - 3*S1^4`` (= n^3 * sum((x-m)^4))
    — and each final value is one explicit IEEE op sequence over them,
    mirrored verbatim in the SQL oracle (HUGEINT exact arithmetic there):
      mean     = S1 / n                         (double div)
      stddev   = sqrt(A2 / (n*(n-1)))           (double div, one sqrt)
      skew_pop = A3 / (r*r*r), r = sqrt(A2)     (population g1)
      kurt_pop = A4 / (A2*A2) * (n*n) - 3.0     (population excess g2)
    so the result hashes bit-identically with no rounding tolerance."""
    import ray.data as rd

    schema = pa.schema(
        [
            (key, pa.string()),
            ("n", pa.int64()),
            ("s1", pa.int64()),
            ("s2", pa.int64()),
            ("s3", pa.int64()),
            ("s4", pa.int64()),
        ]
    )

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return schema.empty_table()
        import pandas as pd

        x = np.rint(t.column(x_col).to_numpy(zero_copy_only=False)).astype(np.int64)
        x2 = x * x
        df = pd.DataFrame(
            {
                key: t.column(key).to_pylist(),
                "n": np.ones_like(x),
                "s1": x,
                "s2": x2,
                "s3": x2 * x,
                "s4": x2 * x2,
            }
        )
        g = df.groupby(key, as_index=False, sort=False).sum()
        return pa.table({f.name: pa.array(g[f.name], type=f.type) for f in schema})

    rows = ds.map_batches(partial, batch_format="pyarrow").take_all()
    acc: dict = {}
    for r in rows:  # exact: Python ints never overflow
        a = acc.setdefault(r[key], [0, 0, 0, 0, 0])
        for i, f in enumerate(("n", "s1", "s2", "s3", "s4")):
            a[i] += int(r[f])
    keys_sorted = sorted(acc)
    ns, means, sds, skews, kurts = [], [], [], [], []
    for k in keys_sorted:
        n, s1, s2, s3, s4 = acc[k]
        a2 = n * s2 - s1 * s1
        a3 = n * n * s3 - 3 * n * s1 * s2 + 2 * s1**3
        a4 = n**3 * s4 - 4 * n * n * s1 * s3 + 6 * n * s1 * s1 * s2 - 3 * s1**4
        ns.append(n)
        means.append(float(s1) / float(n))
        if n < 2 or a2 == 0:
            sds.append(None if n < 2 else 0.0)
            skews.append(None)
            kurts.append(None)
            continue
        sds.append(math.sqrt(float(a2) / float(n * (n - 1))))
        r_ = math.sqrt(float(a2))
        skews.append(float(a3) / (r_ * r_ * r_))
        kurts.append(float(a4) / (float(a2) * float(a2)) * (float(n) * float(n)) - 3.0)
    out = pa.table(
        {
            key: pa.array(keys_sorted, type=pa.string()),
            "n": pa.array(ns, type=pa.int64()),
            "mean": pa.array(means, type=pa.float64()),
            "sd": pa.array(sds, type=pa.float64()),
            "skew_pop": pa.array(skews, type=pa.float64()),
            "kurt_pop": pa.array(kurts, type=pa.float64()),
        }
    )
    return rd.from_arrow(out)

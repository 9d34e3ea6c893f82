"""Decomposable statistics: fixed-width histograms, integer-exact grouped
moments, correlation, Spearman and OLS, grouped entropy and z-scores,
winsorized / MAD group stats and MAD outliers, chi-square category drift, the
exact Gini coefficient, and the label-agreement reports (Cohen's kappa,
per-label precision/recall/F1).

Each ships kilobyte-scale partials per block and folds them in the calling
process or through one answer-sized exchange (the ``functions/sketch.py``
family shape), so wall time is the read. Reference parity: the reference has
no numeric analytics; this is part of the beyond-reference training-data
operator set.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa


def grouped_corr_int(ds, key: str, x_col: str, y_col: str, y_scale: int = 1, out_name: str = "corr"):
    """Pearson correlation of ``x`` and ``y`` per group of ``key``, from
    integer-exact sufficient statistics.

    Contract: ``x`` and ``y * y_scale`` are integral-valued (rounded with
    ``rint`` on both engines) and each PER-BATCH sufficient sum fits int64 —
    the cross-block fold runs in arbitrary-precision Python ints on the
    driver, so block sums never overflow no matter the total row count.
    ``key`` is low-cardinality (the driver fold sees ``groups x blocks``
    rows); for a high-cardinality key route the partials through
    ``agg.bucketed_aggregate`` instead.

    Cross-engine float discipline (NOTES.md, the pagerank rule): the final
    value is one explicit IEEE op sequence over EXACT integers —
    ``float(n*sxy - sx*sy) / (sqrt(float(n*sxx - sx^2)) * sqrt(float(n*syy - sy^2)))``
    — mirrored verbatim in the SQL oracle (CAST exact ints to DOUBLE, two
    sqrts, one multiply, one divide), so the result hashes bit-identically.
    """
    import ray.data as rd

    schema = pa.schema(
        [
            (key, pa.string()),
            ("n", pa.int64()),
            ("sx", pa.int64()),
            ("sy", pa.int64()),
            ("sxy", pa.int64()),
            ("sxx", pa.int64()),
            ("syy", pa.int64()),
        ]
    )

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return schema.empty_table()
        import pandas as pd

        x = np.rint(t.column(x_col).to_numpy(zero_copy_only=False)).astype(np.int64)
        y = np.rint(t.column(y_col).to_numpy(zero_copy_only=False) * y_scale).astype(np.int64)
        df = pd.DataFrame(
            {
                key: t.column(key).to_pylist(),
                "n": np.ones_like(x),
                "sx": x,
                "sy": y,
                "sxy": x * y,
                "sxx": x * x,
                "syy": y * y,
            }
        )
        g = df.groupby(key, as_index=False, sort=False).sum()
        return pa.table({f.name: pa.array(g[f.name], type=f.type) for f in schema})

    rows = ds.map_batches(partial, batch_format="pyarrow").take_all()
    acc: dict = {}
    for r in rows:  # exact: Python ints never overflow
        a = acc.setdefault(r[key], [0, 0, 0, 0, 0, 0])
        a[0] += int(r["n"])
        a[1] += int(r["sx"])
        a[2] += int(r["sy"])
        a[3] += int(r["sxy"])
        a[4] += int(r["sxx"])
        a[5] += int(r["syy"])
    keys_sorted = sorted(acc)
    ns, corrs = [], []
    for k in keys_sorted:
        n, sx, sy, sxy, sxx, syy = acc[k]
        num = n * sxy - sx * sy
        varx = n * sxx - sx * sx
        vary = n * syy - sy * sy
        if varx == 0 or vary == 0:
            corrs.append(None)
        else:
            corrs.append(float(num) / (math.sqrt(float(varx)) * math.sqrt(float(vary))))
        ns.append(n)
    out = pa.table(
        {
            key: pa.array(keys_sorted, type=pa.string()),
            "n": pa.array(ns, type=pa.int64()),
            out_name: pa.array(corrs, type=pa.float64()),
        }
    )
    return rd.from_arrow(out)


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


def grouped_entropy(ds, key: str, cat_col: str, num_buckets: int = 64, key_type: pa.DataType = None):
    """Shannon entropy (nats) of ``cat_col``'s distribution per group of
    ``key``, combiner-first: per-batch exact (key, cat) counts collapse the
    corpus to vocabulary-sized partials, ONE coarse-bucket exchange merges
    them, and H = ln(n) - sum(c*ln(c))/n is computed from EXACT integer
    counts inside the bucket task.

    Cross-engine float discipline: the counts are exact on both engines; the
    only float noise is the association order of the <=|categories| -term
    sum (~1e-16), killed by round(6) — mirrored in the SQL oracle
    ``round(ln(sum(cnt)) - sum(cnt*ln(cnt))/sum(cnt), 6)``.
    Returns (key, n, entropy) sorted by key."""
    import pandas as pd
    import ray.data as rd

    from text_to_graph_ray.functions.agg import BUCKET_COL, bucket_exchange, with_bucket
    from text_to_graph_ray.util import sort_coalesced

    key_type = key_type or pa.string()
    part_schema = pa.schema([(key, key_type), (cat_col, pa.string()), ("cnt", pa.int64())])
    out_schema = pa.schema([(key, key_type), ("n", pa.int64()), ("entropy", pa.float64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        df = pd.DataFrame({key: t.column(key).to_pylist(), cat_col: t.column(cat_col).to_pylist()})
        g = df.groupby([key, cat_col], as_index=False, sort=False).size().rename(columns={"size": "cnt"})
        return pa.table({f.name: pa.array(g[f.name], type=f.type) for f in part_schema}, schema=part_schema)

    def per_bucket(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_schema.empty_table()
        df = df.drop(columns=[BUCKET_COL])
        m = df.groupby([key, cat_col], as_index=False, sort=False)["cnt"].sum()
        keys_out, ns, hs = [], [], []
        for kv, g in m.groupby(key, sort=False):
            c = g["cnt"].to_numpy(dtype=np.int64)
            n = int(c.sum())
            h = math.log(n) - float(np.sum(c * np.log(c))) / float(n)
            keys_out.append(kv)
            ns.append(n)
            hs.append(round(h, 6))
        return pa.table(
            {key: pa.array(keys_out, type=out_schema.field(key).type), "n": pa.array(ns, type=pa.int64()),
             "entropy": pa.array(hs, type=pa.float64())},
            schema=out_schema,
        )

    pre = ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
    out = bucket_exchange(
        with_bucket(pre, key, num_buckets, in_schema=part_schema), per_bucket, out_schema, num_buckets
    )
    return sort_coalesced(out, key)


def grouped_zscore(ds, key: str, x_col: str, id_col: str, key_type: pa.DataType = None):
    """Per-row z-score standardization against the row's GROUP mean/stddev —
    the canonical two-pass feature-normalization shape: pass 1 computes exact
    integer power sums per group (same contract as ``grouped_moments_int``:
    integral-valued x, per-batch sums fit int64), the vocabulary-sized
    (group -> mean, sd) table is broadcast via ``ray.put``, and pass 2
    standardizes inside the scan — the corpus itself never shuffles.

    Cross-engine float discipline: mean = S1/n and sd = sqrt(A2/(n*(n-1)))
    are each ONE IEEE op sequence from exact ints, and z = (x - mean)/sd is
    per-row arithmetic with no association freedom — bit-identical to the
    SQL mirror, no rounding tolerance. Groups with n < 2 or zero variance
    emit NULL z. Returns (id, key, z)."""
    import ray
    import ray.data as rd

    key_type = key_type or pa.string()
    schema = pa.schema([(key, key_type), ("n", pa.int64()), ("s1", pa.int64()), ("s2", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return schema.empty_table()
        import pandas as pd

        x = np.rint(t.column(x_col).to_numpy(zero_copy_only=False)).astype(np.int64)
        df = pd.DataFrame({key: t.column(key).to_pylist(), "n": np.ones_like(x), "s1": x, "s2": x * x})
        g = df.groupby(key, as_index=False, sort=False).sum()
        return pa.table({f.name: pa.array(g[f.name], type=f.type) for f in schema})

    rows = ds.map_batches(partial, batch_format="pyarrow").take_all()
    acc: dict = {}
    for r in rows:  # exact Python-int fold, vocabulary-sized
        a = acc.setdefault(r[key], [0, 0, 0])
        a[0] += int(r["n"])
        a[1] += int(r["s1"])
        a[2] += int(r["s2"])
    stats = {}
    for kv, (n, s1, s2) in acc.items():
        a2 = n * s2 - s1 * s1
        if n < 2 or a2 == 0:
            stats[kv] = (float(s1) / float(n) if n else 0.0, None)
        else:
            stats[kv] = (float(s1) / float(n), math.sqrt(float(a2) / float(n * (n - 1))))
    ref = ray.put(stats)

    out_schema = pa.schema([(id_col, pa.int64()), (key, key_type), ("z", pa.float64())])

    def standardize(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        st = ray.get(ref)
        keys = t.column(key).to_pylist()
        x = np.rint(t.column(x_col).to_numpy(zero_copy_only=False)).astype(np.int64)
        z = []
        for kv, xi in zip(keys, x):
            mean, sd = st[kv]
            z.append(None if sd is None else (float(xi) - mean) / sd)
        return pa.table(
            {id_col: t.column(id_col), key: t.column(key), "z": pa.array(z, type=pa.float64())},
            schema=out_schema,
        )

    return ds.map_batches(standardize, batch_format="pyarrow")


def grouped_spearman_int(ds, key: str, x_col: str, y_col: str, y_scale: int = 1,
                         num_buckets: int = 64, max_group_rows: int = 1_200_000):
    """Spearman rank correlation per group — Pearson over AVERAGE ranks,
    which are exact half-integers, so DOUBLED ranks are exact int64 and the
    whole statistic inherits the integer-sufficient-statistics discipline:
    one keyed exchange, per-group vectorized average-ranking (pandas
    ``rank(method='average')``, C speed), exact integer sums, ONE explicit
    IEEE op sequence mirrored in the SQL oracle (2*avg_rank = 2*rank() +
    tie_count - 1 there) — bit-identical, no tolerance.

    Contract: x and y*y_scale integral-valued (``rint`` both engines); a
    group's rows land in one bucket task (keyed-groupby contract) and
    sum(4*rank^2) must fit int64 — guarded loudly at ``max_group_rows``
    (~4n^3 < 2^63). Returns (key, n, spearman) sorted by key."""
    import pandas as pd

    from text_to_graph_ray.functions.agg import BUCKET_COL, bucket_exchange, with_bucket
    from text_to_graph_ray.util import sort_coalesced

    part_schema = pa.schema([(key, pa.string()), ("x", pa.int64()), ("y", pa.int64())])
    out_schema = pa.schema([(key, pa.string()), ("n", pa.int64()), ("spearman", pa.float64())])

    def prep(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        x = np.rint(t.column(x_col).to_numpy(zero_copy_only=False)).astype(np.int64)
        y = np.rint(t.column(y_col).to_numpy(zero_copy_only=False) * y_scale).astype(np.int64)
        return pa.table(
            {key: t.column(key), "x": pa.array(x, type=pa.int64()), "y": pa.array(y, type=pa.int64())},
            schema=part_schema,
        )

    def per_bucket(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_schema.empty_table()
        df = df.drop(columns=[BUCKET_COL])
        keys_out, ns, rs = [], [], []
        for kv, g in df.groupby(key, sort=False):
            n = len(g)
            if n > max_group_rows:
                raise ValueError(f"grouped_spearman_int: group {kv!r} has {n} rows (> {max_group_rows})")
            rx = (2.0 * g["x"].rank(method="average")).to_numpy().astype(np.int64)
            ry = (2.0 * g["y"].rank(method="average")).to_numpy().astype(np.int64)
            sx, sy = int(rx.sum()), int(ry.sum())
            sxy = int(np.sum(rx * ry, dtype=np.int64))
            sxx = int(np.sum(rx * rx, dtype=np.int64))
            syy = int(np.sum(ry * ry, dtype=np.int64))
            varx, vary = n * sxx - sx * sx, n * syy - sy * sy  # exact Python ints
            keys_out.append(kv)
            ns.append(n)
            if varx == 0 or vary == 0:
                rs.append(None)
            else:
                rs.append(float(n * sxy - sx * sy) / (math.sqrt(float(varx)) * math.sqrt(float(vary))))
        return pa.table(
            {key: pa.array(keys_out, type=pa.string()), "n": pa.array(ns, type=pa.int64()),
             "spearman": pa.array(rs, type=pa.float64())},
            schema=out_schema,
        )

    pre = ds.map_batches(prep, batch_format="pyarrow", batch_size=None)
    out = bucket_exchange(
        with_bucket(pre, key, num_buckets, in_schema=part_schema), per_bucket, out_schema, num_buckets
    )
    return sort_coalesced(out, key)


def winsorize_group_stats(ds, key: str, col: str, q_lo: float = 0.1, q_hi: float = 0.9,
                          key_type: pa.DataType | None = None, num_buckets: int = 64,
                          groups_max: int = 100_000):
    """Per-group winsorization at EXACT discrete quantiles + clipped
    aggregates — the curation op that tames heavy-tailed metrics (doc
    lengths, per-domain counts) before averaging. Input values must be
    integer-typed (int64) so everything downstream is exact.

    Phase 1 (bounds): one keyed coarse-bucket exchange of (key, value) rows;
    per bucket a vectorized sort + group-offset index probe applies DuckDB's
    ``quantile_disc`` rule (index ceil(q*n)-1, clamped) — the
    ``exact_quantiles`` discipline per group. The bounds table is
    vocabulary-sized; it is collected under a LOUD ``groups_max`` guard and
    broadcast ONCE via ray.put (the grouped_zscore two-pass shape — the
    corpus itself never shuffles for phase 2).

    Phase 2 (clip + aggregate): one scan maps each row's key to its [lo, hi]
    (vectorized searchsorted on the sorted key array), clips, flags, and
    pre-aggregates per batch; a small keyed exchange merges the partials.

    Returns (key, n, n_lo, n_hi, sum_clipped) sorted by key: row count,
    rows clipped from below / above, and the winsorized integer sum.
    """
    import pandas as pd
    import ray

    from text_to_graph_ray.functions.agg import BUCKET_COL, bucket_exchange, bucketed_aggregate, with_bucket
    from text_to_graph_ray.util import sort_coalesced

    key_type = key_type or pa.string()
    pair_schema = pa.schema([(key, key_type), (col, pa.int64())])
    bounds_schema = pa.schema([(key, key_type), ("lo", pa.int64()), ("hi", pa.int64())])

    def keep(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if b.num_rows == 0:
            return pair_schema.empty_table()
        b = b.select([key, col]).filter(pc.is_valid(b.column(col)))
        return pa.table({key: b.column(key), col: pc.cast(b.column(col), pa.int64())}, schema=pair_schema)

    pairs = ds.map_batches(keep, batch_format="pyarrow")

    def bounds_bucket(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return bounds_schema.empty_table()
        df = df.drop(columns=[BUCKET_COL]).sort_values([key, col], kind="mergesort")
        sizes = df.groupby(key, sort=False)[col].size().to_numpy()
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        vals = df[col].to_numpy()
        out_keys = df[key].iloc[starts].to_numpy()

        def disc_idx(q):
            i = np.ceil(q * sizes).astype(np.int64) - 1
            return starts + np.clip(i, 0, sizes - 1)

        return pa.table({
            key: pa.array(out_keys, type=key_type),
            "lo": pa.array(vals[disc_idx(q_lo)], type=pa.int64()),
            "hi": pa.array(vals[disc_idx(q_hi)], type=pa.int64()),
        }, schema=bounds_schema)

    bounds = bucket_exchange(
        with_bucket(pairs, [key], num_buckets, in_schema=pair_schema),
        bounds_bucket, bounds_schema, num_buckets,
    ).materialize()
    n_groups = bounds.count()
    if n_groups > groups_max:
        raise ValueError(
            f"winsorize_group_stats: {n_groups} groups exceed groups_max={groups_max} — "
            "a bounds table this large should not be driver-broadcast; shard phase 2 by key instead"
        )
    bt = pa.concat_tables([t for t in ray.get(bounds.to_arrow_refs()) if t.num_rows])
    bkeys = np.asarray(bt.column(key).to_pylist())
    order = np.argsort(bkeys)
    ref = ray.put((bkeys[order],
                   np.asarray(bt.column("lo").to_pylist(), dtype=np.int64)[order],
                   np.asarray(bt.column("hi").to_pylist(), dtype=np.int64)[order]))

    part_schema = pa.schema([(key, key_type), ("n", pa.int64()), ("n_lo", pa.int64()),
                             ("n_hi", pa.int64()), ("sum_clipped", pa.int64())])

    def clip_partial(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return part_schema.empty_table()
        karr, lo_arr, hi_arr = ray.get(ref)
        df = pd.DataFrame({
            key: b.column(key).to_pylist(),
            col: np.asarray(b.column(col).to_pylist(), dtype=np.int64),
        })
        idx = np.searchsorted(karr, df[key].to_numpy())
        lo, hi = lo_arr[idx], hi_arr[idx]
        v = df[col].to_numpy()
        df["n_lo"] = (v < lo).astype(np.int64)
        df["n_hi"] = (v > hi).astype(np.int64)
        df["sum_clipped"] = np.clip(v, lo, hi)
        df["n"] = 1
        g = df.groupby(key, as_index=False, sort=False)[["n", "n_lo", "n_hi", "sum_clipped"]].sum()
        return pa.table({f.name: pa.array(g[f.name], type=f.type) for f in part_schema}, schema=part_schema)

    partials = pairs.map_batches(clip_partial, batch_format="pyarrow")
    out = bucketed_aggregate(
        partials, [key],
        {"n": ("n", "sum"), "n_lo": ("n_lo", "sum"), "n_hi": ("n_hi", "sum"),
         "sum_clipped": ("sum_clipped", "sum")},
        out_schema=part_schema, num_buckets=num_buckets, in_schema=part_schema,
    )
    return sort_coalesced(out, key)


def grouped_mad(ds, key: str, col: str, key_type: pa.DataType | None = None,
                groups_max: int = 100_000, num_buckets: int = 64,
                include_median: bool = False):
    """Median absolute deviation per group — the robust dispersion measure
    (outlier-insensitive where stddev is not): mad = median(|x - median(x)|),
    both medians the INTERPOLATED quantile_cont(0.5) with the engine's
    round(6) float discipline (the oracle mirrors the same explicit CTE —
    not DuckDB's mad(), so rounding points match op-for-op).

    Plan: one keyed row exchange for the per-group median
    (``grouped_quantiles_cont``), the group-sized median table
    guard-collected and ray.put once, |x - med| computed in a scan, and a
    second keyed row exchange for the deviations' median. Two row
    exchanges are inherent to exact nested medians; at estimate-tolerant
    scale use sketch.grouped_quantile_sketch for both levels."""
    import numpy as np
    import ray

    from text_to_graph_ray.functions.quantiles import grouped_quantiles_cont
    from text_to_graph_ray.util import sort_coalesced

    key_type = key_type or pa.string()
    med = grouped_quantiles_cont(ds, key, col, [0.5], key_type=key_type,
                                 num_buckets=num_buckets).materialize()
    n_groups = med.count()
    if n_groups > groups_max:
        raise ValueError(f"grouped_mad: {n_groups} groups exceed groups_max={groups_max}")
    mt = pa.concat_tables([t for t in ray.get(med.to_arrow_refs()) if t.num_rows])
    mkeys = np.asarray(mt.column(key).to_pylist())
    order = np.argsort(mkeys)
    ref = ray.put((mkeys[order], np.asarray(mt.column("value").to_pylist(), dtype=np.float64)[order]))

    dev_schema = pa.schema([(key, key_type), ("dev", pa.float64())])

    def deviations(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if b.num_rows == 0:
            return dev_schema.empty_table()
        b = b.filter(pc.is_valid(b.column(col)))
        ks, meds = ray.get(ref)
        karr = np.asarray(b.column(key).to_pylist())
        m = meds[np.searchsorted(ks, karr)]
        x = b.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        return pa.table({key: pa.array(karr, type=key_type),
                         "dev": pa.array(np.abs(x - m), type=pa.float64())}, schema=dev_schema)

    devs = ds.select_columns([key, col]).map_batches(deviations, batch_format="pyarrow")
    out = grouped_quantiles_cont(devs, key, "dev", [0.5], key_type=key_type, num_buckets=num_buckets)

    med_fields = [(key, key_type)] + ([("med", pa.float64())] if include_median else []) + [("mad", pa.float64())]
    ren_schema = pa.schema(med_fields)

    def rename(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return ren_schema.empty_table()
        data = {key: b.column(key)}
        if include_median:
            ks, meds = ray.get(ref)
            karr = np.asarray(b.column(key).to_pylist())
            data["med"] = pa.array(meds[np.searchsorted(ks, karr)], type=pa.float64())
        data["mad"] = b.column("value")
        return pa.table(data, schema=ren_schema)

    return sort_coalesced(out.map_batches(rename, batch_format="pyarrow"), key)


def mad_outliers(ds, key: str, col: str, k: float = 3.0, key_type: pa.DataType | None = None,
                 groups_max: int = 100_000, num_buckets: int = 64):
    """Robust per-group anomaly counts: rows whose |x - median| exceeds
    ``k`` × the group's MAD (median absolute deviation) — the outlier
    detector that a mean/stddev z-score can't be (a single extreme value
    drags the mean toward itself and inflates sigma; the two medians do not
    move). Returns (key, n, n_anomalies) sorted by key.

    Plan: ``grouped_mad(include_median=True)`` pays the two keyed row
    exchanges exact nested medians require; the group-sized (key, med, mad)
    table is guard-collected, ``ray.put`` once, and ONE more streamed scan
    counts anomalies per batch (combiner) into a vocabulary-sized bucketed
    sum. Float discipline mirrors the oracle op-for-op: both medians are
    round(·, 6); the test is ``abs(x - med) > k * mad`` — three single IEEE
    ops on identical inputs."""
    import ray

    from text_to_graph_ray.functions.agg import bucketed_aggregate
    from text_to_graph_ray.util import sort_coalesced

    key_type = key_type or pa.string()
    mm = grouped_mad(ds, key, col, key_type=key_type, groups_max=groups_max,
                     num_buckets=num_buckets, include_median=True).materialize()
    mt = pa.concat_tables([t for t in ray.get(mm.to_arrow_refs()) if t.num_rows])
    mkeys = np.asarray(mt.column(key).to_pylist())
    order = np.argsort(mkeys)
    ref = ray.put((
        mkeys[order],
        np.asarray(mt.column("med").to_pylist(), dtype=np.float64)[order],
        np.asarray(mt.column("mad").to_pylist(), dtype=np.float64)[order],
    ))

    part_schema = pa.schema([(key, key_type), ("n", pa.int64()), ("n_anomalies", pa.int64())])

    def partial(b: pa.Table) -> pa.Table:
        import pandas as pd
        import pyarrow.compute as pc

        if b.num_rows == 0:
            return part_schema.empty_table()
        b = b.filter(pc.is_valid(b.column(col)))
        if b.num_rows == 0:
            return part_schema.empty_table()
        ks, meds, mads = ray.get(ref)
        karr = np.asarray(b.column(key).to_pylist())
        pos = np.searchsorted(ks, karr)
        x = b.column(col).to_numpy(zero_copy_only=False).astype(np.float64)
        anom = np.abs(x - meds[pos]) > k * mads[pos]
        g = pd.DataFrame({key: karr, "n": 1, "n_anomalies": anom.astype(np.int64)}).groupby(
            key, as_index=False, sort=False
        ).sum()
        return pa.table({f.name: pa.array(g[f.name], type=f.type) for f in part_schema}, schema=part_schema)

    parts = ds.select_columns([key, col]).map_batches(partial, batch_format="pyarrow")
    out = bucketed_aggregate(
        parts, key, {"n": ("n", "sum"), "n_anomalies": ("n_anomalies", "sum")},
        out_schema=part_schema, num_buckets=num_buckets, in_schema=part_schema,
    )
    return sort_coalesced(out, key)


CHI2_SCHEMA = pa.schema(
    [("cat", pa.string()), ("n_a", pa.int64()), ("n_b", pa.int64()), ("chi2_term", pa.float64())]
)


def categorical_drift_chi2(ds, cat_col: str, side_col: str, num_buckets: int = 64):
    """Distribution-drift monitor between two cohorts: the chi-square
    decomposition of a categorical column's 2×K contingency table.
    ``side_col`` is a bool Arrow column (False = cohort A, True = cohort B);
    output is one row per category with the exact cohort counts and that
    category's chi-square contribution

        e_a = (n_a + n_b) * tot_a / (tot_a + tot_b)
        chi2_term = (n_a - e_a)^2 / e_a + (n_b - e_b)^2 / e_b   (round 6)

    — Σ chi2_term is the full statistic with K-1 dof; per-category terms
    localize WHICH value drifted (the production data-quality view).

    Scale shape: per-batch combiner partials (category × side counts — at
    most 2K rows per batch cross the exchange, never events), one tiny
    keyed sum, and a single-task finish because the answer is K-sized.
    Floats: every term is the SAME expression tree over exact int64-derived
    doubles on both engines; round(6) absorbs nothing real but pins the
    contract."""
    import pandas as pd
    import pyarrow.compute as pc

    from text_to_graph_ray.functions.agg import bucketed_aggregate

    part_schema = pa.schema([("cat", pa.string()), ("n_a", pa.int64()), ("n_b", pa.int64())])

    def partial(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return part_schema.empty_table()
        side = b.column(side_col).to_numpy(zero_copy_only=False).astype(bool)
        g = (
            pd.DataFrame({"cat": b.column(cat_col).to_pylist(), "b": side})
            .groupby("cat", sort=False)["b"]
            .agg(n="size", n_b="sum")
            .reset_index()
        )
        return pa.table(
            {"cat": pa.array(g["cat"], type=pa.string()),
             "n_a": pa.array((g["n"] - g["n_b"]).to_numpy(dtype=np.int64), type=pa.int64()),
             "n_b": pa.array(g["n_b"].to_numpy(dtype=np.int64), type=pa.int64())},
            schema=part_schema,
        )

    sums = bucketed_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"), "cat",
        {"n_a": ("n_a", "sum"), "n_b": ("n_b", "sum")},
        out_schema=part_schema, num_buckets=num_buckets, in_schema=part_schema,
    )

    def finish(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return CHI2_SCHEMA.empty_table()
        df = b.to_pandas().sort_values("cat", kind="mergesort")
        na = df["n_a"].to_numpy(dtype=np.int64).astype(np.float64)
        nb = df["n_b"].to_numpy(dtype=np.int64).astype(np.float64)
        tot_a, tot_b = na.sum(), nb.sum()
        grand = tot_a + tot_b
        e_a = (na + nb) * tot_a / grand
        e_b = (na + nb) * tot_b / grand
        d_a, d_b = na - e_a, nb - e_b
        with np.errstate(divide="ignore", invalid="ignore"):
            # d*d (not **2): the same multiply the SQL writes, so both
            # engines evaluate an identical expression tree
            term = np.where(e_a > 0, d_a * d_a / e_a, 0.0) + np.where(e_b > 0, d_b * d_b / e_b, 0.0)
        term = np.asarray([round(float(x), 6) for x in term], dtype=np.float64)
        return pa.table(
            {"cat": pa.array(df["cat"], type=pa.string()),
             "n_a": pa.array(df["n_a"].to_numpy(dtype=np.int64), type=pa.int64()),
             "n_b": pa.array(df["n_b"].to_numpy(dtype=np.int64), type=pa.int64()),
             "chi2_term": pa.array(term, type=pa.float64())},
            schema=CHI2_SCHEMA,
        )

    return sums.repartition(1).map_batches(finish, batch_format="pyarrow", batch_size=None)


def cohens_kappa(ds, a_col: str, b_col: str):
    """Cohen's kappa — chance-corrected agreement between two categorical
    columns (rater A vs rater B; classifier prediction vs ground truth).
    The standard eval-agreement metric for judging a cheap heuristic
    labeler (lang-id, quality gate, weak classifier) against reference
    labels before trusting it to filter a corpus.

    Exact-math discipline: each batch reduces to its (a, b) contingency
    partial via one Arrow group_by — label-pair-sized, never row-sized —
    and the driver folds the per-block partials in arbitrary-precision
    Python ints. With po = agree/n and pe = sum_k row_k * col_k / n^2,
    kappa scaled by n^2 is a ratio of two INTEGERS:

        kappa = (n * agree - S) / (n^2 - S),   S = sum_k row_k * col_k

    finished as ONE float64 division + round(6), mirrored op-for-op in
    SQL (HUGEINT sums, one CAST AS DOUBLE division). The degenerate
    den == 0 case (both marginals concentrated on one identical label,
    which forces agree == n) returns 1.0 on both engines.

    Returns a ONE-ROW (n_rows int64, agree int64, kappa float64) Table.
    Driver memory is O(blocks x distinct label pairs) — the established
    "driver holds #blocks answer-sized rows" fold pattern."""
    part_schema = pa.schema([("a", pa.string()), ("b", pa.string()), ("n", pa.int64())])

    def contingency(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        g = (
            pa.table({"a": t.column(a_col).cast(pa.string()), "b": t.column(b_col).cast(pa.string())})
            .group_by(["a", "b"])
            .aggregate([([], "count_all")])
        )
        return pa.table({"a": g.column("a"), "b": g.column("b"),
                         "n": g.column("count_all").cast(pa.int64())}, schema=part_schema)

    from collections import Counter

    cell = Counter()
    for row in ds.map_batches(contingency, batch_format="pyarrow", batch_size=None).take_all():
        cell[(row["a"], row["b"])] += int(row["n"])
    n = sum(cell.values())
    agree = sum(v for (x, y), v in cell.items() if x == y)
    row_m, col_m = Counter(), Counter()
    for (x, y), v in cell.items():
        row_m[x] += v
        col_m[y] += v
    s = sum(row_m[k] * col_m.get(k, 0) for k in row_m)
    num, den = n * agree - s, n * n - s
    kappa = round(float(num) / float(den), 6) if den != 0 else 1.0
    return pa.table({"n_rows": pa.array([n], type=pa.int64()),
                     "agree": pa.array([agree], type=pa.int64()),
                     "kappa": pa.array([kappa], type=pa.float64())})


def classification_report(ds, truth_col: str, pred_col: str):
    """Per-label precision / recall / F1 from the same label-pair-sized
    contingency fold as ``cohens_kappa`` — the standard eval table for a
    heuristic labeler against reference labels.

    Float discipline: every metric is ONE ratio of exact integers
    (precision = tp/n_pred, recall = tp/n_true, f1 = 2*tp/(n_true+n_pred)
    — the harmonic mean reduced to a single integer ratio), one IEEE
    division + round(6) each, mirrored verbatim in SQL. Labels appearing
    only in predictions still get a row (n_true = 0); zero denominators
    yield 0.0 on both engines.

    Returns (label, n_true, n_pred, tp, precision, recall, f1) sorted by
    label."""
    part_schema = pa.schema([("t", pa.string()), ("p", pa.string()), ("n", pa.int64())])

    def contingency(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return part_schema.empty_table()
        g = (
            pa.table({"t": t.column(truth_col).cast(pa.string()), "p": t.column(pred_col).cast(pa.string())})
            .group_by(["t", "p"])
            .aggregate([([], "count_all")])
        )
        return pa.table({"t": g.column("t"), "p": g.column("p"),
                         "n": g.column("count_all").cast(pa.int64())}, schema=part_schema)

    from collections import Counter

    cell = Counter()
    for row in ds.map_batches(contingency, batch_format="pyarrow", batch_size=None).take_all():
        cell[(row["t"], row["p"])] += int(row["n"])
    n_true, n_pred, tp = Counter(), Counter(), Counter()
    for (t, p), v in cell.items():
        n_true[t] += v
        n_pred[p] += v
        if t == p:
            tp[t] += v
    labels = sorted(set(n_true) | set(n_pred))

    def ratio(a: int, b: int) -> float:
        return round(float(a) / float(b), 6) if b else 0.0

    return pa.table({
        "label": pa.array(labels, type=pa.string()),
        "n_true": pa.array([n_true[l] for l in labels], type=pa.int64()),
        "n_pred": pa.array([n_pred[l] for l in labels], type=pa.int64()),
        "tp": pa.array([tp[l] for l in labels], type=pa.int64()),
        "precision": pa.array([ratio(tp[l], n_pred[l]) for l in labels], type=pa.float64()),
        "recall": pa.array([ratio(tp[l], n_true[l]) for l in labels], type=pa.float64()),
        "f1": pa.array([ratio(2 * tp[l], n_true[l] + n_pred[l]) for l in labels], type=pa.float64()),
    })


def gini_exact(ds, col: str = "cents", out_schema: pa.Schema | None = None):
    """Exact Gini coefficient of an int64 column via distributed sort +
    block-offset rank weighting.

    G = (2·Σᵢ i·xᵢ − (n+1)·Σx) / (n·Σx) over the ascending sort (1-based
    ranks).  Ties need no tiebreak: swapping equal values leaves Σ i·xᵢ
    unchanged, so any stable order of equal keys yields the same sum.

    Scale shape: ONE distributed ``ds.sort`` (the unavoidable exchange), then
    per-block rank-weighted partials where only the block's row offset — a
    driver-side prefix sum over block COUNTS, the ``add_dense_index`` trick —
    couples blocks.  Each partial is exact: int64 products are chunk-summed
    with ``np.add.reduceat`` at a chunk size derived from the block's max
    product so no chunk sum can overflow, and chunk sums accumulate in
    arbitrary-precision Python ints (shipped as decimal strings, one row per
    block).  The driver folds #blocks rows.  Requires max_rank·max_value <
    2^62 per ELEMENT (rank 10^9 × cents 5·10^8 fits); guarded explicitly.
    """
    import ray
    import ray.data as rd

    from text_to_graph_ray.util import block_rows

    sorted_ds = ds.sort(col).materialize()

    @ray.remote
    def partial(t: pa.Table, offset: int):
        if t.num_rows == 0:
            return ("0", 0, 0)
        x = np.asarray(t.column(col), dtype=np.int64)
        m = len(x)
        w_max = offset + m  # largest 1-based global rank in this block
        x_max = int(x.max()) if m else 0
        if x_max > 0 and w_max * x_max >= (1 << 62):
            raise ValueError(
                f"gini_exact: rank*value {w_max}*{x_max} risks int64 overflow; "
                "rescale the value column before calling"
            )
        w = np.arange(offset + 1, offset + m + 1, dtype=np.int64)
        prod = w * x
        # chunk so each partial sum of products stays far below 2^63
        per = max(1, w_max * max(x_max, 1))
        chunk = max(1, int((1 << 62) // per))
        cuts = np.arange(0, m, chunk, dtype=np.int64)
        s1 = sum(int(v) for v in np.add.reduceat(prod, cuts))
        sx = sum(int(v) for v in np.add.reduceat(x, cuts))
        return (str(s1), sx, m)

    tasks, total = [], 0
    for ref, c in block_rows(sorted_ds):
        tasks.append(partial.remote(ref, total))
        total += c
    parts = ray.get(tasks)
    s1 = sum(int(p[0]) for p in parts)
    sx = sum(int(p[1]) for p in parts)
    n = sum(int(p[2]) for p in parts)

    schema = out_schema or pa.schema(
        [("n_rows", pa.int64()), ("total", pa.int64()), ("gini", pa.float64())]
    )
    if n == 0 or sx == 0:
        return rd.from_arrow(
            pa.table({schema[0].name: [n], schema[1].name: [sx], schema[2].name: [0.0]}, schema=schema)
        )
    # single division with both operands cast int->double first — the exact
    # expression the SQL oracle writes: (2*s1-(n+1)*sx)::DOUBLE/(n*sx)::DOUBLE
    gini = round(float(2 * s1 - (n + 1) * sx) / float(n * sx), 6)
    return rd.from_arrow(
        pa.table({schema[0].name: [n], schema[1].name: [sx], schema[2].name: [gini]}, schema=schema)
    )


def grouped_ols_int(ds, key: str, x_col: str, y_col: str, y_scale: int = 1,
                    chunk_rows: int = 8192):
    """Ordinary-least-squares fit of ``y ~ x`` per group of ``key`` from
    integer-exact sufficient statistics: (key, n, slope, intercept, r2).

    Same discipline as ``grouped_corr_int``: x and y*y_scale are quantized
    with ``floor(v*scale + 0.5)`` (mirrored verbatim in SQL — never
    np.round/rint, whose half-even ties diverge from DuckDB's half-away),
    per-chunk int64 sufficient sums (``chunk_rows`` bounds every per-chunk
    Σy² far below 2^63), cross-block fold in arbitrary-precision Python
    ints on the driver (answer-sized: groups × chunks rows). The finish is
    an explicit IEEE op sequence over exact integers —
    ``slope = float(n·sxy − sx·sy) / float(n·sxx − sx²)``,
    ``intercept = (float(sy) − slope·float(sx)) / float(n)``,
    ``r2 = corr²`` with corr as in grouped_corr_int — each mirrored
    op-for-op in the SQL oracle (HUGEINT sums CAST to DOUBLE), so results
    hash bit-identically with NO output rounding. ``key`` is
    low-cardinality; route a high-cardinality key through
    ``agg.bucketed_aggregate`` instead.
    """
    import ray.data as rd

    schema = pa.schema([
        (key, pa.string()), ("n", pa.int64()), ("sx", pa.int64()), ("sy", pa.int64()),
        ("sxy", pa.int64()), ("sxx", pa.int64()), ("syy", pa.int64()),
    ])

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return schema.empty_table()
        import pandas as pd

        x = np.floor(t.column(x_col).to_numpy(zero_copy_only=False) + 0.5).astype(np.int64)
        y = np.floor(t.column(y_col).to_numpy(zero_copy_only=False) * y_scale + 0.5).astype(np.int64)
        keys = t.column(key).to_pylist()
        outs = []
        for s in range(0, len(x), chunk_rows):
            e = s + chunk_rows
            xc, yc = x[s:e], y[s:e]
            df = pd.DataFrame({
                key: keys[s:e], "n": np.ones_like(xc), "sx": xc, "sy": yc,
                "sxy": xc * yc, "sxx": xc * xc, "syy": yc * yc,
            })
            outs.append(df.groupby(key, as_index=False, sort=False).sum())
        g = pd.concat(outs, ignore_index=True)
        return pa.table({f.name: pa.array(g[f.name], type=f.type) for f in schema})

    rows = ds.map_batches(partial, batch_format="pyarrow").take_all()
    acc: dict = {}
    for r in rows:  # exact: Python ints never overflow
        a = acc.setdefault(r[key], [0, 0, 0, 0, 0, 0])
        for i, c in enumerate(("n", "sx", "sy", "sxy", "sxx", "syy")):
            a[i] += int(r[c])
    keys_sorted = sorted(acc)
    ns, slopes, intercepts, r2s = [], [], [], []
    for k in keys_sorted:
        n, sx, sy, sxy, sxx, syy = acc[k]
        num = n * sxy - sx * sy
        varx = n * sxx - sx * sx
        vary = n * syy - sy * sy
        if varx == 0:
            slopes.append(None)
            intercepts.append(None)
            r2s.append(None)
        else:
            slope = float(num) / float(varx)
            slopes.append(slope)
            intercepts.append((float(sy) - slope * float(sx)) / float(n))
            if vary == 0:
                r2s.append(None)
            else:
                corr = float(num) / (math.sqrt(float(varx)) * math.sqrt(float(vary)))
                r2s.append(corr * corr)
        ns.append(n)
    out = pa.table({
        key: pa.array(keys_sorted, type=pa.string()),
        "n": pa.array(ns, type=pa.int64()),
        "slope": pa.array(slopes, type=pa.float64()),
        "intercept": pa.array(intercepts, type=pa.float64()),
        "r2": pa.array(r2s, type=pa.float64()),
    })
    return rd.from_arrow(out)

"""Decomposable statistics: fixed-width histograms, integer-exact grouped
moments, and the label-agreement reports (Cohen's kappa, per-label
precision/recall/F1).

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


"""High-cardinality aggregation without per-group Python dispatch.

Ray's built-in ``groupby().aggregate()`` (sort-based shuffle) combines per
GROUP at the Python level in both the map and the reduce tasks — fine for a
handful of groups, ruinous when the key is near-unique (measured at sf0.1:
a 147k-group Sum over 581k rows spends ~10 s / ~200 µs-per-group in
AggregateMap+AggregateReduce combine; the same aggregate through
``bucketed_aggregate`` runs in ~1.5 s). ``GroupedData.map_groups`` pays the
same tax: one block-slice + batch-format conversion + UDF call per fine
group.

These helpers shuffle on a COARSE hash bucket instead (cardinality =
``num_buckets``, so Ray's per-group dispatch runs ``num_buckets`` times
total) and run the real per-key aggregation VECTORIZED (one
``DataFrame.groupby`` per bucket) inside each bucket. Because every row of a
fine key lands in exactly one bucket, any per-group aggregate — including
non-decomposable ones (median, nunique) — is exact, not approximate.

Scale shape: the exchange moves the same bytes as a keyed groupby would
(it IS a keyed shuffle, just on ``hash(key) % B``), so skew across fine
keys is smoothed over buckets; one pathological hot KEY still lands in one
bucket, the same hot-spot a plain groupby would have. ``num_buckets``
should be ~2-8× cluster cores so bucket tasks saturate the cluster.

Bucket assignment uses ``pandas.util.hash_pandas_object`` (SipHash with a
fixed key) — deterministic across processes, machines and runs, vectorized
in C, and defined for string, numeric and multi-column keys alike.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from text_to_graph_ray.util import pa_from_pandas

BUCKET_COL = "__agg_bucket"


def _as_key_list(keys) -> list:
    return [keys] if isinstance(keys, str) else list(keys)


def with_bucket(ds, keys, num_buckets: int = 64, in_schema: pa.Schema | None = None):
    """Append a deterministic coarse-bucket column (``hash(keys) % B``).

    Arrow-native: the block stays zero-copy; only the key columns round-trip
    through pandas for the SipHash. ``in_schema`` (recommended) pins the
    schema of schema-less empty blocks (an all-empty upstream partition loses
    its column list through Ray's block plumbing) so this stage emits a
    stable RefBundle schema.
    """
    keys = _as_key_list(keys)

    def add(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            sch = in_schema if (in_schema is not None and t.num_columns == 0) else t.schema
            return pa.schema(list(sch) + [pa.field(BUCKET_COL, pa.int64())]).empty_table()
        h = pd.util.hash_pandas_object(t.select(keys).to_pandas(), index=False).to_numpy()
        return t.append_column(BUCKET_COL, pa.array((h % num_buckets).astype("int64")))

    return ds.map_batches(add, batch_format="pyarrow", batch_size=None)


def bucketed_aggregate(
    ds,
    keys,
    aggs: dict,
    out_schema: pa.Schema | None = None,
    num_buckets: int = 64,
    in_schema: pa.Schema | None = None,
):
    """``ds.groupby(keys).aggregate(...)`` for high-cardinality keys.

    ``aggs`` maps output column name -> ``(input_col, pandas_op)`` where
    ``pandas_op`` is any ``DataFrame.groupby().agg`` reduction (``"sum"``,
    ``"min"``, ``"max"``, ``"size"``, ``"mean"``, ``"median"``, ...).
    NOTE: non-reassociable ops (``mean``/``median``) see the rows that reach
    this operator — if the caller pre-combined per batch, pass the
    decomposed sums instead.

    ``out_schema`` (recommended) pins the output column types so empty or
    skewed buckets cannot destabilize downstream RefBundle schemas.
    """
    keys = _as_key_list(keys)
    named = {a: pd.NamedAgg(column=c, aggfunc=op) for a, (c, op) in aggs.items()}

    def agg_bucket(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0 and out_schema is not None:  # empty shuffle partition (may be schema-less)
            return out_schema.empty_table()
        g = df.groupby(keys, as_index=False, sort=False).agg(**named)
        if out_schema is not None:
            return pa.table({f.name: pa.array(g[f.name], type=f.type) for f in out_schema})
        return pa_from_pandas(g)

    return bucket_exchange(
        with_bucket(ds, keys, num_buckets, in_schema=in_schema), agg_bucket, out_schema, num_buckets
    )


def bucket_exchange(
    bucketed,
    per_bucket,
    out_schema: pa.Schema | None = None,
    num_buckets: int = 64,
    rows_per_partition: int = 16384,
):
    """The shared tail of every coarse-bucket operator: shuffle ``bucketed``
    (a dataset carrying ``BUCKET_COL``) so each bucket lands whole in one
    partition, then run ``per_bucket`` (pandas DataFrame -> pa.Table)
    vectorized over each bucket group.

    Partition count is sized from the ACTUAL row count, not ``num_buckets``:
    the groupby's sort-shuffle samples range boundaries from the bucket
    column, and when the data holds fewer distinct bucket values than there
    are partitions (a vocabulary-sized input in a 64-bucket exchange),
    duplicate boundaries produce EMPTY ranges — and Ray's map stage passes an
    all-empty input block through schema-less without calling the UDF, which
    destabilizes downstream RefBundle schemas. Counting first costs nothing
    extra: the groupby is an all-to-all barrier that materializes its input
    anyway. At scale the count is large, the partition count saturates at
    ``num_buckets // 2`` (>= 2 uniformly-hashed bucket values per sampled
    boundary range), and the exchange behaves exactly as before.
    """
    import ray.data as rd

    from text_to_graph_ray.util import compact_nonempty

    # drop zero-row blocks up front: Ray's FUSED map chains drop empty batches
    # BETWEEN stages, so an empty input block turns the whole task's output
    # schema-less — both in the uniq estimation pass below and in consumers
    bucketed = compact_nonempty(bucketed.materialize())
    n = bucketed.count()
    if n == 0 and out_schema is not None:
        return rd.from_arrow(out_schema.empty_table())
    p = max(1, min(max(1, num_buckets // 2), n // rows_per_partition + 1))
    if p > 1:
        # Low-cardinality keys occupy few buckets no matter how many rows they
        # carry (5 group values -> <= 5 distinct bucket ids), so also cap at
        # half the bucket ids ACTUALLY PRESENT: two per-block vectorized
        # unique passes over the already-materialized int64 bucket column,
        # <= num_buckets rows ever reach the driver.
        import pyarrow.compute as pc

        def uniq(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return pa.table({BUCKET_COL: pa.array([], type=pa.int64())})
            return pa.table({BUCKET_COL: pc.unique(t.column(BUCKET_COL))})

        per_block = bucketed.select_columns([BUCKET_COL]).map_batches(uniq, batch_format="pyarrow", batch_size=None)
        nb = len({r[BUCKET_COL] for r in per_block.repartition(1).map_batches(uniq, batch_format="pyarrow").take_all()})
        p = max(1, min(p, nb // 2))
    out = bucketed.repartition(p).groupby(BUCKET_COL).map_groups(per_bucket, batch_format="pandas")
    if out_schema is None:
        return out
    # schema pinning without a union template: the groupby was a barrier
    # anyway, so materialize the (bounded: one table per bucket) result and
    # drop stray empty blocks — a 0-row template unioned in would reach
    # downstream fused map chains as a schema-less pass-through block
    m = compact_nonempty(out.materialize())
    if m.count() == 0:
        return rd.from_arrow(out_schema.empty_table())
    return m


def distinct_rows(ds, cols, out_schema: pa.Schema, num_buckets: int = 64):
    """Exact distributed DISTINCT over ``cols`` (SELECT DISTINCT a, b, ...).

    Scale shape: a per-batch ``drop_duplicates`` combiner shrinks the exchange
    to at most one row per distinct value PER BATCH, then one coarse-bucket
    shuffle dedupes globally (vectorized per bucket — no per-key dispatch).
    Every copy of a value hashes to the same bucket, so the result is exact.
    """
    cols = _as_key_list(cols)

    def local(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_schema.empty_table()
        d = df[cols].drop_duplicates()
        return pa.table({f.name: pa.array(d[f.name], type=f.type) for f in out_schema})

    def per_bucket(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_schema.empty_table()
        d = df.drop(columns=[BUCKET_COL]).drop_duplicates()
        return pa.table({f.name: pa.array(d[f.name], type=f.type) for f in out_schema})

    pre = ds.map_batches(local, batch_format="pandas", batch_size=None)
    return bucket_exchange(
        with_bucket(pre, cols, num_buckets, in_schema=out_schema), per_bucket, out_schema, num_buckets
    )


def topk_per_group(
    ds,
    keys,
    order_col: str,
    k: int,
    descending: bool = True,
    tiebreak: str | None = None,
    out_schema: pa.Schema | None = None,
    num_buckets: int = 64,
    in_schema: pa.Schema | None = None,
):
    """Top-``k`` rows per fine group, ordered by ``order_col`` (then
    ``tiebreak`` ascending, for a deterministic result set).

    Scale shape: a PER-BATCH combiner prunes each upstream batch to its own
    local top-k per key before the exchange (the global top-k per key is a
    subset of the union of per-batch top-ks), so the shuffle carries at most
    ``k`` rows per key per upstream batch — the hot-key bound is ``k × #batches``,
    not the key's row count. The bucketed reduce then takes the exact top-k
    per key vectorized (one sort + ``groupby.head`` per bucket).
    """
    keys = _as_key_list(keys)
    by = keys + [order_col] + ([tiebreak] if tiebreak else [])
    asc = [True] * len(keys) + [not descending] + ([True] if tiebreak else [])

    def prune(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            sch = in_schema or out_schema
            return sch.empty_table() if sch is not None else pa_from_pandas(df)
        top = df.sort_values(by, ascending=asc, kind="mergesort").groupby(keys, sort=False).head(k)
        return pa_from_pandas(top.reset_index(drop=True))

    def per_bucket(df: pd.DataFrame) -> pa.Table:
        # one vectorized sort + groupby.head per BUCKET — not one Python UDF
        # call per fine group (measured 8.5 s -> 0.3 s on 15k groups at sf0.1)
        if len(df) == 0:
            return out_schema.empty_table()
        top = (
            df.drop(columns=[BUCKET_COL])
            .sort_values(by, ascending=asc, kind="mergesort")
            .groupby(keys, sort=False)
            .head(k)
        )
        return pa.table({f.name: pa.array(top[f.name], type=f.type) for f in out_schema})

    pruned = ds.map_batches(prune, batch_format="pandas", batch_size=None)
    if out_schema is None:
        # derive a pinned schema from the input if available
        raise ValueError("topk_per_group requires out_schema (stable empty-block schemas)")
    return bucket_exchange(
        with_bucket(pruned, keys, num_buckets, in_schema=in_schema), per_bucket, out_schema, num_buckets
    )


_SETOP_SIDE = "__setop_side"


def set_op_rows(ds_a, ds_b, cols, out_schema: pa.Schema, op: str = "intersect", num_buckets: int = 64):
    """Exact distributed SQL ``INTERSECT`` / ``EXCEPT`` over ``cols`` (both
    return DISTINCT rows, per the SQL set-operation semantics).

    Scale shape: same discipline as ``distinct_rows`` — a per-batch
    ``drop_duplicates`` combiner on EACH side bounds the exchange at one row
    per distinct value per batch, the two sides ride ONE union tagged with a
    side marker, and one coarse-bucket shuffle co-locates every copy of a
    value; per bucket the set logic is a vectorized pandas ``isin`` over the
    side-split frames. No driver-side materialization of either side.
    """
    if op not in ("intersect", "except"):
        raise ValueError(f"op must be 'intersect' or 'except', got {op!r}")
    cols = _as_key_list(cols)
    tagged_schema = pa.schema(list(out_schema) + [pa.field(_SETOP_SIDE, pa.int64())])

    def local(side: int):
        def fn(df: pd.DataFrame) -> pa.Table:
            if len(df) == 0:
                return tagged_schema.empty_table()
            d = df[cols].drop_duplicates()
            return pa.table(
                {
                    **{f.name: pa.array(d[f.name], type=f.type) for f in out_schema},
                    _SETOP_SIDE: pa.array(np.full(len(d), side, dtype="int64")),
                }
            )

        return fn

    def per_bucket(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_schema.empty_table()
        df = df.drop(columns=[BUCKET_COL])
        a = df[df[_SETOP_SIDE] == 0][cols].drop_duplicates()
        b = df[df[_SETOP_SIDE] == 1][cols]
        if len(cols) == 1:
            mask = a[cols[0]].isin(b[cols[0]])
        else:
            key_a = pd.MultiIndex.from_frame(a[cols])
            key_b = pd.MultiIndex.from_frame(b[cols].drop_duplicates())
            mask = key_a.isin(key_b)
        keep = a[mask] if op == "intersect" else a[~np.asarray(mask)]
        return pa.table({f.name: pa.array(keep[f.name], type=f.type) for f in out_schema})

    unioned = ds_a.map_batches(local(0), batch_format="pandas", batch_size=None).union(
        ds_b.map_batches(local(1), batch_format="pandas", batch_size=None)
    )
    return bucket_exchange(
        with_bucket(unioned, cols, num_buckets, in_schema=tagged_schema), per_bucket, out_schema, num_buckets
    )


def latest_per_key(ds, keys, order_by, out_schema: pa.Schema, descending=True, num_buckets: int = 64):
    """Keep exactly one row per key: the FIRST under ``order_by`` sorted
    ``descending`` (i.e. the latest when order_by is a timestamp) — SQL's
    ``QUALIFY row_number() OVER (PARTITION BY keys ORDER BY ... DESC) = 1``.
    The standard keep-newest-version curation op over a mutable corpus.

    Determinism contract: ``order_by`` must be a total order within each key
    (append a unique id column as the last tiebreaker).

    Scale shape: a per-batch combiner keeps one candidate row per key per
    batch (drop_duplicates over a key-sorted frame — vectorized), so the
    exchange carries at most one row per key per upstream batch; one
    coarse-bucket shuffle then picks the global winner the same way.
    """
    keys = _as_key_list(keys)
    order_by = _as_key_list(order_by)
    asc = [not descending] * len(order_by) if isinstance(descending, bool) else [not d for d in descending]

    def pick(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_schema.empty_table()
        if BUCKET_COL in df.columns:
            df = df.drop(columns=[BUCKET_COL])
        d = df.sort_values(order_by, ascending=asc, kind="mergesort").drop_duplicates(keys, keep="first")
        return pa.table({f.name: pa.array(d[f.name], type=f.type) for f in out_schema})

    pre = ds.map_batches(pick, batch_format="pandas", batch_size=None)
    return bucket_exchange(
        with_bucket(pre, keys, num_buckets, in_schema=out_schema), pick, out_schema, num_buckets
    )


def pivot_wide(ds, key, pivot_col: str, value_col: str, categories, agg: str = "sum",
               num_buckets: int = 64):
    """GROUP BY ``key`` with ``pivot_col`` spread into one output column per
    category (the wide feature-matrix shape: user × event-type sums, doc ×
    label counts). Decomposable aggs only — ``sum`` / ``count`` / ``min`` /
    ``max`` — so each batch pre-pivots LOCALLY (vectorized
    ``DataFrame.pivot_table``) and only (key × categories) partials enter the
    ONE keyed exchange (``bucketed_aggregate``); at corpus scale the exchange
    carries per-key partials, not rows.

    ``categories`` is explicit (deterministic output schema — the distributed
    contract; discover with ``distinct_rows`` first if unknown). Absent
    (key, category) cells are 0 for sum/count (SQL ``sum(CASE WHEN .. ELSE 0
    END)`` semantics) and NULL for min/max.
    """
    if agg not in ("sum", "count", "min", "max"):
        raise ValueError(f"agg must be sum/count/min/max, got {agg!r}")
    merge_op = "sum" if agg in ("sum", "count") else agg
    cats = list(categories)
    names = [str(c) for c in cats]
    key = _as_key_list(key)
    base = ds.schema().base_schema
    zero_fill = agg in ("sum", "count")
    val_t = pa.int64() if agg == "count" else pa.float64()
    out_schema = pa.schema([(k, base.field(k).type) for k in key] + [(n, val_t) for n in names])

    def partial(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return out_schema.empty_table()
        df = b.select(key + [pivot_col, value_col]).to_pandas()
        pt = df.pivot_table(index=key, columns=pivot_col, values=value_col, aggfunc=agg,
                            fill_value=0 if zero_fill else None, dropna=False)
        pt = pt.reindex(columns=cats, fill_value=0 if zero_fill else None).reset_index()
        cols = {k: pa.array(pt[k], type=base.field(k).type) for k in key}
        for n, c in zip(names, cats):
            cols[n] = pa.array(pt[c].to_numpy(dtype="int64" if agg == "count" else "float64",
                                              na_value=0) if zero_fill else pt[c], type=val_t)
        return pa.table(cols)

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return bucketed_aggregate(partials, key, {n: (n, merge_op) for n in names},
                              out_schema=out_schema, num_buckets=num_buckets)


def melt(ds, id_cols, value_cols, var_name: str = "variable", value_name: str = "value"):
    """UNPIVOT — the inverse reshape of ``pivot_wide``: each input row fans
    out to one (id_cols, variable, value) row per entry in ``value_cols``.
    Pure per-batch Arrow column slicing + concat (values cast to float64,
    the common type): no exchange, no row-level Python, output streams at
    len(value_cols) × input rows."""
    import pyarrow.compute as pc

    id_cols = _as_key_list(id_cols)
    value_cols = list(value_cols)
    base = ds.schema().base_schema
    out_schema = pa.schema(
        [(c, base.field(c).type) for c in id_cols]
        + [(var_name, pa.string()), (value_name, pa.float64())]
    )

    def fan_out(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return out_schema.empty_table()
        parts = []
        for vc in value_cols:
            cols = {c: b.column(c) for c in id_cols}
            cols[var_name] = pa.array([vc] * b.num_rows, type=pa.string())
            cols[value_name] = pc.cast(b.column(vc), pa.float64())
            parts.append(pa.table(cols))
        return pa.concat_tables(parts)

    return ds.map_batches(fan_out, batch_format="pyarrow")


def merge_upsert(base_ds, changes_ds, key, order_by, deleted_col: str | None = None,
                 out_schema: pa.Schema | None = None, num_buckets: int = 64):
    """Apply a CDC change set to a base table (SQL ``MERGE``): per key the
    winner is the LATEST change row under ``order_by`` when any change
    exists, else the base row; if ``deleted_col`` is given, a winning change
    with it true removes the key entirely (tombstone). Both inputs must
    share a schema (same columns/types).

    Plan: tag each side (changes above base), union, and reuse
    ``latest_per_key`` over (side, order_by) descending — its per-batch
    combiner means the ONE keyed exchange carries at most one candidate row
    per key per upstream batch from either side; a vectorized tombstone
    filter finishes. The keep-latest-version curation op generalized to
    real upserts + deletes.

    Determinism contract (latest_per_key's): (side, order_by) must totally
    order each key's rows."""
    import pyarrow.compute as pc

    keys = _as_key_list(key)
    order_by = _as_key_list(order_by)
    side_col = "__side"
    if out_schema is None:
        s = base_ds.schema()
        out_schema = pa.schema(list(zip(s.names, s.types)))
    tagged_schema = pa.schema(list(out_schema) + [pa.field(side_col, pa.int64())])

    def tag(side: int):
        def add(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return tagged_schema.empty_table()
            return t.select(out_schema.names).append_column(
                side_col, pa.array([side] * t.num_rows, type=pa.int64())
            )

        return add

    tagged = base_ds.map_batches(tag(0), batch_format="pyarrow").union(
        changes_ds.map_batches(tag(1), batch_format="pyarrow")
    )
    winners = latest_per_key(
        tagged, keys=keys, order_by=[side_col] + order_by, out_schema=tagged_schema,
        descending=True, num_buckets=num_buckets,
    )

    def finish(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return out_schema.empty_table()
        if deleted_col is not None:
            t = t.filter(pc.invert(pc.cast(t.column(deleted_col), pa.bool_())))
        return t.select(out_schema.names)

    return winners.map_batches(finish, batch_format="pyarrow")


"""Guarded semi/anti filter and left-outer lookup join on one equality key.

Ray Data's ``Dataset.join`` reserves aggregator actors per partition. Both
operators here instead broadcast the small side once via ``ray.put`` while it
fits a row guard. Past the guard, ``filter_by_keys`` falls back to Ray's hash
join and ``lookup_join`` to ONE side-tagged keyed exchange
(``agg.with_bucket`` + ``agg.bucket_exchange``), merged per bucket in pandas.

Partitioning assumption of the exchange (documented contract): all rows of
one join key fit in one bucket task — the same contract as any keyed groupby.
A hot key costs its own row count, not the corpus.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from text_to_graph_ray.functions.agg import bucket_exchange, with_bucket


def _arrow_schema(ds) -> pa.Schema:
    """Dataset schema as pyarrow, whether the blocks are Arrow or pandas
    (``from_pandas`` datasets expose a PandasBlockSchema of numpy dtypes)."""
    base = ds.schema().base_schema
    if isinstance(base, pa.Schema):
        return base
    fields = []
    for name, dt in zip(base.names, base.types):
        try:
            t = pa.from_numpy_dtype(dt)
        except (pa.ArrowNotImplementedError, pa.ArrowTypeError):
            t = pa.string()  # object dtype
        fields.append((name, t))
    return pa.schema(fields)


SEMI_BROADCAST_MAX_ROWS = 5_000_000  # keys fit one plasma object (~40 MB of int64) and one is_in probe


def filter_by_keys(left, right, key: str, right_key: str | None = None, mode: str = "anti",
                   broadcast_max: int = SEMI_BROADCAST_MAX_ROWS):
    """Guarded semi/anti filter on one equality key: ``mode="semi"`` keeps
    left rows whose key appears in ``right``, ``mode="anti"`` keeps the rest.

    The right side of "keep rows (not) seen in R" is usually vocabulary-sized
    relative to the corpus (a contaminated-id list, a blocklist, an eval
    split); shuffling the whole LEFT for that wastes an exchange. While R's
    row count fits ``broadcast_max``, its DISTINCT keys are collected ONCE
    into plasma (``ray.put``; every task reads the Arrow array zero-copy) and
    the left stream filters itself inside ``map_batches`` with ``pc.is_in``
    — no exchange, no join actors, the left never leaves its blocks. Past the
    guard it falls back to Ray Data's distributed left_semi/left_anti hash
    join (one keyed exchange, aggregator pool sized by join_partitions_for).
    Both plans are value-identical (test forces broadcast_max=0).

    Contract: ``key`` is non-null on both sides (ids). Same discipline as
    kg.DEFS_BROADCAST_MAX / dedup._drop_removed, generalized.
    """
    import ray

    right_key = right_key or key
    if mode not in ("semi", "anti"):
        raise ValueError(f"mode must be 'semi' or 'anti', got {mode!r}")
    key_type = _arrow_schema(left).field(key).type

    def _keys(b: pa.Table, c=right_key, t=key_type) -> pa.Table:
        # empty post-filter blocks can lose their schema entirely (Ray gotcha)
        if b.num_rows == 0 or c not in b.schema.names:
            return pa.table({c: pa.array([], type=t)})
        return pa.table({c: pc.unique(pc.cast(b.column(c), t))})  # cast: is_in needs left's key type

    keys_only = right.map_batches(_keys, batch_format="pyarrow").materialize()
    if keys_only.count() > broadcast_max:
        from text_to_graph_ray.functions.dedup import join_partitions_for

        return left.join(
            keys_only,
            join_type=f"left_{mode}",
            num_partitions=join_partitions_for(),
            on=(key,),
            right_on=(right_key,),
            partition_size_hint=16 << 20,
        )
    # zero-row blocks can come back schema-less after materialize; skip them
    blocks = [t for t in ray.get(keys_only.to_arrow_refs()) if t.num_rows and right_key in t.schema.names]
    if blocks:
        key_arr = pc.unique(pa.concat_tables(blocks).column(right_key).combine_chunks())
    else:
        key_arr = pa.array([], type=key_type)
    if mode == "anti" and len(key_arr) == 0:
        return left
    ref = ray.put(key_arr)
    invert = mode == "anti"

    def flt(b: pa.Table) -> pa.Table:
        ks = ray.get(ref)
        if len(ks) == 0:
            return b.filter(pa.array([False] * b.num_rows, type=pa.bool_()))
        m = pc.is_in(b.column(key), value_set=ks)
        return b.filter(pc.invert(m) if invert else m)

    return left.map_batches(flt, batch_format="pyarrow")


def lookup_join(left, right, key: str, right_key: str | None = None, cols: list | None = None,
                broadcast_max: int = SEMI_BROADCAST_MAX_ROWS, num_buckets: int = 64):
    """LEFT OUTER enrichment join: append ``right``'s ``cols`` to every left
    row by equality on ``key``; left rows with no match keep NULLs in the
    appended columns. The dimension-enrichment shape (fact rows picking up
    attributes from a reference table) the inner hash join can't express
    without dropping unmatched facts.

    Contract: ``right``'s keys are UNIQUE (dimension table) — validated
    loudly on both plans, because silently picking an arbitrary duplicate
    would be a wrong answer, not a degraded one.

    Scale shape: while the right side fits ``broadcast_max`` rows it is
    collected ONCE, key-sorted, and ``ray.put`` as plain Arrow arrays; every
    left batch enriches itself with one vectorized searchsorted + null-masked
    take — the left never leaves its blocks (no exchange). Past the guard it
    falls back to ONE side-tagged bucketed exchange (pandas left-merge per
    bucket) — both plans value-identical (broadcast_max=0 equivalence test).
    """
    import ray

    right_key = right_key or key
    lsch = _arrow_schema(left)
    key_type = lsch.field(key).type
    rsch = _arrow_schema(right)
    cols = list(cols) if cols is not None else [n for n in rsch.names if n != right_key]
    clash = [c for c in cols if c in lsch.names]
    if clash:
        raise ValueError(f"lookup_join: appended columns {clash} already exist on the left")
    col_fields = [(c, rsch.field(c).type) for c in cols]
    out_schema = pa.schema(list(lsch) + [pa.field(c, t) for c, t in col_fields])

    rt = right.select_columns([right_key, *cols]).materialize()
    if rt.count() <= broadcast_max:
        blocks = [t for t in ray.get(rt.to_arrow_refs()) if t.num_rows and right_key in t.schema.names]
        if blocks:
            dim = pa.concat_tables(blocks).combine_chunks()
            karr = dim.column(right_key).cast(key_type)
            order = pc.sort_indices(karr)
            dim = dim.take(order)
            karr = dim.column(right_key).cast(key_type).combine_chunks()
            if len(pc.unique(karr)) != len(karr):
                raise ValueError("lookup_join: right keys are not unique (dimension-table contract)")
            # numpy key array built ONCE at broadcast time, not per batch
            ref = ray.put((np.asarray(karr.to_pylist()), {c: dim.column(c).combine_chunks() for c in cols}))
        else:
            ref = ray.put((np.empty(0, dtype=object), {c: pa.array([], type=t) for c, t in col_fields}))

        def enrich(b: pa.Table) -> pa.Table:
            if b.num_rows == 0:
                return out_schema.empty_table()
            ks, cmap = ray.get(ref)
            lk = b.column(key).cast(key_type).combine_chunks()
            if len(ks) == 0:
                for c, t in col_fields:
                    b = b.append_column(c, pa.nulls(b.num_rows, type=t))
                return b.select(out_schema.names)
            lkn = np.asarray(lk.to_pylist())
            pos = np.searchsorted(ks, lkn)
            pos_c = np.minimum(pos, len(ks) - 1)
            found = ks[pos_c] == lkn
            idx = pa.array(pos_c, mask=~found)  # null index -> null value in take
            for c, _t in col_fields:
                b = b.append_column(c, pc.take(cmap[c], idx))
            return b.select(out_schema.names)

        return left.map_batches(enrich, batch_format="pyarrow")

    # distributed fallback: one side-tagged bucketed exchange, left-merge per
    # bucket (all rows of one key land in one bucket on both sides)
    SIDE = "__lj_side"
    tag_schema = pa.schema(
        [pa.field(key, key_type)]
        + [f for f in lsch if f.name != key]
        + [pa.field(f"__r_{c}", t) for c, t in col_fields]
        + [pa.field(SIDE, pa.int64())]
    )

    def tag_left(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return tag_schema.empty_table()
        data = {key: b.column(key).cast(key_type)}
        for f in lsch:
            if f.name != key:
                data[f.name] = b.column(f.name)
        for c, t in col_fields:
            data[f"__r_{c}"] = pa.nulls(b.num_rows, type=t)
        data[SIDE] = pa.array(np.zeros(b.num_rows, dtype=np.int64))
        return pa.table(data, schema=tag_schema)

    def tag_right(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return tag_schema.empty_table()
        data = {key: b.column(right_key).cast(key_type)}
        for f in lsch:
            if f.name != key:
                data[f.name] = pa.nulls(b.num_rows, type=f.type)
        for c, _t in col_fields:
            data[f"__r_{c}"] = b.column(c)
        data[SIDE] = pa.array(np.ones(b.num_rows, dtype=np.int64))
        return pa.table(data, schema=tag_schema)

    unioned = left.map_batches(tag_left, batch_format="pyarrow").union(
        rt.map_batches(tag_right, batch_format="pyarrow")
    )

    def per_bucket(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_schema.empty_table()
        l = df[df[SIDE] == 0]
        r = df[df[SIDE] == 1]
        if r[key].duplicated().any():
            raise ValueError("lookup_join: right keys are not unique (dimension-table contract)")
        lcols = [key] + [f.name for f in lsch if f.name != key]
        rcols = [key] + [f"__r_{c}" for c, _t in col_fields]
        m = l[lcols].merge(r[rcols], on=key, how="left")
        out = {}
        for f in out_schema:
            src = f.name if f.name in m.columns else f"__r_{f.name}"
            out[f.name] = pa.array(m[src], type=f.type, from_pandas=True)
        return pa.table(out, schema=out_schema)

    return bucket_exchange(
        with_bucket(unioned, [key], num_buckets, in_schema=tag_schema),
        per_bucket, out_schema, num_buckets,
    )


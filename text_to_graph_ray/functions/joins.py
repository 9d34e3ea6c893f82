"""Guarded semi/anti filters, keyed joins and as-of / range (interval) joins
without Ray join actors.

Ray Data's ``Dataset.join`` reserves aggregator actors per partition and has
no as-of or range join; these joins instead either broadcast a small side
once via ``ray.put`` (while it fits a row guard) or run ONE keyed exchange:

1. tag each side and align schemas (the other side's payload columns ride as
   nulls) so the two Datasets union into one stream;
2. coarse-bucket on the equality key (``agg.with_bucket`` — deterministic
   SipHash, so every key's rows land in exactly one bucket regardless of
   block splits);
3. run the join logic VECTORIZED per bucket in pandas: ``pandas.merge_asof``
   for as-of, ``numpy.searchsorted`` window expansion for range.

Partitioning assumption (documented contract): all rows of one join key fit
in one bucket task — the same contract as any keyed groupby.  A hot key costs
its own row count, not the corpus; bucket count smooths skew across keys.

The temporal joins return timestamps as int64 epoch-microseconds.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from text_to_graph_ray.functions.agg import BUCKET_COL, with_bucket

_SIDE = "__side"
_US = "datetime64[us]"


def _epoch_us(series: pd.Series) -> np.ndarray:
    return series.values.astype(_US).astype("int64")


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


def _tagged_union(left, right, by: str, on: str, left_cols: dict, right_cols: dict):
    """Map both sides onto one combined schema (key, ts-us, side tag, each
    side's payload with the OTHER side's columns nulled) and union them.
    ``left_cols`` / ``right_cols`` map output name -> source column."""
    lschema, rschema = _arrow_schema(left), _arrow_schema(right)

    def out_type(schema, col):
        t = schema.field(col).type
        return pa.int64() if pa.types.is_timestamp(t) else t

    fields = [(by, pa.int64()), (on, pa.int64()), (_SIDE, pa.int8())]
    fields += [(o, out_type(lschema, c)) for o, c in left_cols.items()]
    fields += [(o, out_type(rschema, c)) for o, c in right_cols.items()]
    combined = pa.schema(fields)

    def side_fn(cols: dict, schema: pa.Schema, side: int):
        ts_srcs = {o for o, c in cols.items() if pa.types.is_timestamp(schema.field(c).type)}

        def fn(df: pd.DataFrame) -> pa.Table:
            n = len(df)
            arrays = {
                by: pa.array(df[by].to_numpy(dtype="int64"), type=pa.int64()),
                on: pa.array(_epoch_us(df[on]), type=pa.int64()),
                _SIDE: pa.array(np.full(n, side, dtype="int8"), type=pa.int8()),
            }
            for f in combined:
                if f.name in arrays:
                    continue
                src = cols.get(f.name)
                if src is None:
                    arrays[f.name] = pa.nulls(n, type=f.type)
                elif f.name in ts_srcs:
                    arrays[f.name] = pa.array(_epoch_us(df[src]), type=pa.int64())
                else:
                    arrays[f.name] = pa.array(df[src], type=f.type)
            return pa.table({f.name: arrays[f.name] for f in combined}, schema=combined)

        return fn

    l = left.map_batches(side_fn(left_cols, lschema, 0), batch_format="pandas", batch_size=None)
    r = right.map_batches(side_fn(right_cols, rschema, 1), batch_format="pandas", batch_size=None)
    return l.union(r), combined


def _bucketed_merge(unioned, combined: pa.Schema, by: str, merge_fn, out_schema: pa.Schema, num_buckets: int):
    bucketed = with_bucket(unioned, by, num_buckets, in_schema=combined)

    def per_bucket(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:  # empty shuffle partition (may be schema-less)
            return out_schema.empty_table()
        return merge_fn(df.drop(columns=[BUCKET_COL]))

    from text_to_graph_ray.functions.agg import bucket_exchange

    return bucket_exchange(bucketed, per_bucket, out_schema, num_buckets)


def asof_join(
    left,
    right,
    on: str,
    by: str,
    left_cols: dict,
    right_cols: dict,
    direction: str = "backward",
    inner: bool = True,
    num_buckets: int = 64,
):
    """For each left row, the single nearest right row with the same ``by``
    key and ``right.on <= left.on`` (``direction="backward"``; ``"forward"``
    for >=).  Exact-timestamp matches count.  ``inner=True`` drops left rows
    with no match (DuckDB ``ASOF JOIN``); ``inner=False`` keeps them with
    null right payload (``ASOF LEFT JOIN``).

    ``left_cols`` / ``right_cols``: output name -> source column.  Timestamp
    sources are emitted as int64 epoch-us.  Assumes (by, on) is unique per
    side — with duplicates the chosen right row follows sort order and may
    differ from an oracle's choice.
    """
    unioned, combined = _tagged_union(left, right, by, on, left_cols, right_cols)
    lnames, rnames = list(left_cols), list(right_cols)
    out_fields = [(by, pa.int64()), (on, pa.int64())]
    out_fields += [(n, combined.field(n).type) for n in lnames + rnames]
    out_schema = pa.schema(out_fields)

    def merge(df: pd.DataFrame) -> pa.Table:
        l = df[df[_SIDE] == 0][[by, on] + lnames].sort_values(on, kind="mergesort")
        r = df[df[_SIDE] == 1][[by, on] + rnames].sort_values(on, kind="mergesort")
        if len(l) == 0:
            return out_schema.empty_table()
        r["__m"] = np.int8(1)
        out = pd.merge_asof(l, r, on=on, by=by, direction=direction, allow_exact_matches=True)
        if inner:
            out = out[out["__m"].notna()]
        out = out.drop(columns=["__m"])
        arrays = {}
        for f in out_schema:
            col = out[f.name]
            if pa.types.is_integer(f.type) and col.dtype.kind == "f":
                # unmatched-left nulls promoted these to float; NaN must map
                # to NULL, not crash the int cast (ASOF LEFT JOIN with an
                # int/timestamp right payload)
                v = col.to_numpy()
                arrays[f.name] = pa.array(
                    [None if np.isnan(x) else int(x) for x in v], type=f.type
                )
            else:
                arrays[f.name] = pa.array(col, type=f.type)
        return pa.table(arrays, schema=out_schema)

    return _bucketed_merge(unioned, combined, by, merge, out_schema, num_buckets)


def range_join(
    left,
    right,
    on: str,
    by: str,
    left_cols: dict,
    right_cols: dict,
    lower_us: int,
    upper_us: int,
    num_buckets: int = 64,
    max_matches_per_row: int = 1000,
):
    """All (left, right) pairs with the same ``by`` key and
    ``left.on + lower_us < right.on <= left.on + upper_us`` (an interval /
    band join, e.g. attribution windows).  Per bucket, per key: one
    ``np.searchsorted`` over the right side's sorted timestamps gives each
    left row its match span; spans expand with ``np.repeat`` — no Python
    per-row loop.  ``max_matches_per_row`` FAILS LOUDLY (ValueError, never a
    silent truncation) on pathological windows — a key firing continuously
    inside every window.
    """
    unioned, combined = _tagged_union(left, right, by, on, left_cols, right_cols)
    lnames, rnames = list(left_cols), list(right_cols)
    out_fields = [(by, pa.int64()), (f"l_{on}", pa.int64()), (f"r_{on}", pa.int64())]
    out_fields += [(n, combined.field(n).type) for n in lnames + rnames]
    out_schema = pa.schema(out_fields)

    def merge(df: pd.DataFrame) -> pa.Table:
        outs = []
        for _, g in df.groupby(by, sort=False):
            l = g[g[_SIDE] == 0].sort_values(on, kind="mergesort")
            r = g[g[_SIDE] == 1].sort_values(on, kind="mergesort")
            if len(l) == 0 or len(r) == 0:
                continue
            lt = l[on].to_numpy()
            rt = r[on].to_numpy()
            lo = np.searchsorted(rt, lt + lower_us, side="right")
            hi = np.searchsorted(rt, lt + upper_us, side="right")
            if int((hi - lo).max(initial=0)) > max_matches_per_row:
                # loud, not silent: truncation would diverge from the SQL
                # inequality-join semantics the oracle checks
                raise ValueError(
                    f"range_join: a row matched {(hi - lo).max()} right rows > "
                    f"max_matches_per_row={max_matches_per_row}; raise the cap "
                    "explicitly if this density is expected"
                )
            counts = hi - lo
            if counts.sum() == 0:
                continue
            li = np.repeat(np.arange(len(l)), counts)
            # right index for each pair: span start + within-span offset
            offs = np.arange(len(li)) - np.repeat(np.cumsum(counts) - counts, counts)
            ri = np.repeat(lo, counts) + offs
            cols = {by: np.repeat(g[by].iloc[0], len(li)), f"l_{on}": lt[li], f"r_{on}": rt[ri]}
            for n in lnames:
                cols[n] = l[n].to_numpy()[li]
            for n in rnames:
                cols[n] = r[n].to_numpy()[ri]
            outs.append(pa.table({f.name: pa.array(cols[f.name], type=f.type) for f in out_schema}, schema=out_schema))
        if not outs:
            return out_schema.empty_table()
        return pa.concat_tables(outs)

    return _bucketed_merge(unioned, combined, by, merge, out_schema, num_buckets)


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


def keyed_full_outer(left, right, keys, left_vals, right_vals, num_buckets: int = 64):
    """Generic FULL OUTER equi-join of two KEYED-UNIQUE datasets in ONE
    exchange — no join actors: each side is tagged onto a shared schema
    (the other side's value columns nulled), unioned, coarse-bucketed on the
    key, and pivoted back to one row per key inside a vectorized per-bucket
    kernel. Keys present on only one side surface with the other side's
    values NULL, exactly like SQL ``FULL OUTER JOIN`` over two aggregate
    subqueries (value columns are emitted float64 so the missing side is a
    real NULL/NaN, matching the nullable dtype DuckDB hands back).

    Contract: ``keys`` are unique per side (both inputs are aggregate
    outputs; asserted per bucket), value columns are numeric. Scale shape:
    the exchange carries |left| + |right| aggregate rows — never a corpus —
    and a key's rows meet in exactly one bucket task (the asof/range-join
    partitioning assumption).
    """
    import ray.data as rd

    from text_to_graph_ray.functions.agg import BUCKET_COL, bucket_exchange, with_bucket

    keys = [keys] if isinstance(keys, str) else list(keys)
    left_vals = [left_vals] if isinstance(left_vals, str) else list(left_vals)
    right_vals = [right_vals] if isinstance(right_vals, str) else list(right_vals)
    key_fields = [(k, _arrow_schema(left).field(k).type) for k in keys]
    combined = pa.schema(
        key_fields + [(c, pa.float64()) for c in left_vals + right_vals]
    )

    def tag(side_vals, other_vals):
        def fn(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return combined.empty_table()
            cols = {k: t.column(k) for k in keys}
            for c in side_vals:
                cols[c] = pc.cast(t.column(c), pa.float64())
            for c in other_vals:
                cols[c] = pa.nulls(t.num_rows, type=pa.float64())
            return pa.table(cols, schema=combined)

        return fn

    unioned = left.map_batches(tag(left_vals, right_vals), batch_format="pyarrow").union(
        right.map_batches(tag(right_vals, left_vals), batch_format="pyarrow")
    )
    out_schema = combined

    def per_bucket(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_schema.empty_table()
        df = df.drop(columns=[BUCKET_COL])
        # sum(min_count=1): each (key, column) holds at most one non-null row
        # per the uniqueness contract, so this is "take the value or NULL"
        g = df.groupby(keys, as_index=False, sort=False, dropna=False)
        if g.size()["size"].max() > 2:
            raise ValueError("keyed_full_outer: keys are not unique per side")
        out = g.sum(min_count=1)
        return pa.table(
            {f.name: pa.array(out[f.name], type=f.type) for f in out_schema}, schema=out_schema
        )

    return bucket_exchange(
        with_bucket(unioned, keys, num_buckets, in_schema=combined), per_bucket, out_schema, num_buckets
    )


def filter_by_all_keys(left, right, keys, right_key: str, mode: str = "semi",
                       broadcast_max: int = SEMI_BROADCAST_MAX_ROWS):
    """Conjunctive multi-column variant of ``filter_by_keys``: keep left
    rows whose EVERY column in ``keys`` appears in ``right``'s key set
    (``mode="semi"``), or the complement (``mode="anti"``). The
    edge-both-endpoints-alive shape.

    Under the broadcast guard this is ONE streamed pass over the left with
    len(keys) vectorized ``is_in`` masks AND-ed together — chaining
    ``filter_by_keys`` per column would re-scan (and re-materialize) the
    left once per column. Above the guard it falls back to chained
    distributed semi joins, which ARE per-column exchanges (that cost is
    inherent to the join plan); both plans are value-identical
    (threshold-0 equivalence test).
    """
    import ray

    keys = list(keys)
    if mode not in ("semi", "anti"):
        raise ValueError(f"mode must be 'semi' or 'anti', got {mode!r}")
    lsch = _arrow_schema(left)
    key_type = lsch.field(keys[0]).type
    # the single right-side key set is matched against EVERY left key
    # column, so all of them must share one type — a silent cast of
    # heterogeneous columns to keys[0]'s type would corrupt the match
    mismatched = [k for k in keys if lsch.field(k).type != key_type]
    if mismatched:
        raise TypeError(
            f"filter_by_all_keys: key columns must share one type; {keys[0]!r} is "
            f"{key_type} but {mismatched} differ ({[str(lsch.field(k).type) for k in mismatched]})"
        )

    def _keys(b: pa.Table, c=right_key, t=key_type) -> pa.Table:
        if b.num_rows == 0 or c not in b.schema.names:
            return pa.table({c: pa.array([], type=t)})
        return pa.table({c: pc.unique(pc.cast(b.column(c), t))})

    keys_only = right.map_batches(_keys, batch_format="pyarrow").materialize()
    # keys_only is unique per BATCH, not globally, so count() is a
    # conservative upper bound on the distinct-key cardinality: a key
    # duplicated across batches can trip the guard early and take the
    # chained-semi fallback. Deliberate — globally deduping just to size the
    # guard would itself pay the exchange the broadcast path exists to avoid,
    # and the fallback is value-identical (threshold-0 equivalence test).
    if keys_only.count() > broadcast_max:
        if mode == "anti":
            raise NotImplementedError(
                "filter_by_all_keys(mode='anti') above the broadcast guard: the complement of a "
                "conjunction is not a chain of anti joins — filter the semi result instead"
            )
        out = left
        for k in keys:
            out = filter_by_keys(out, keys_only, key=k, right_key=right_key, mode="semi",
                                 broadcast_max=broadcast_max)
        return out
    blocks = [t for t in ray.get(keys_only.to_arrow_refs()) if t.num_rows and right_key in t.schema.names]
    if blocks:
        key_arr = pc.unique(pa.concat_tables(blocks).column(right_key).combine_chunks())
    else:
        key_arr = pa.array([], type=key_type)
    ref = ray.put(key_arr)
    invert = mode == "anti"

    def flt(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return b
        ks = ray.get(ref)
        if len(ks) == 0:
            m = pa.array([False] * b.num_rows, type=pa.bool_())
        else:
            m = None
            for k in keys:
                mk = pc.is_in(pc.cast(b.column(k), key_type), value_set=ks)
                m = mk if m is None else pc.and_(m, mk)
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
    from text_to_graph_ray.functions.agg import bucket_exchange

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

"""Distinct-count sketches: KMV (k-minimum-values) and HyperLogLog.

COUNT(DISTINCT x) at 100 TB is an all-to-all exchange of every distinct value
(``agg.distinct_rows`` pays it exactly). A sketch replaces that with a
FIXED-SIZE partial per block — mergeable by union/max — so the whole
reduction is one driver-side fold over kilobyte-sized partials, no exchange
at all. Both sketches here hash with pandas' process-stable
SipHash64 (``hash_pandas_object``: fixed key, vectorized, any key dtype).

* ``kmv_distinct`` — keeps the k smallest distinct 64-bit hashes per column.
  Estimate: ``(k-1) * 2^64 / kth_min``. EXACT-BELOW-k contract: while the true
  cardinality is < k the sketch holds every distinct hash and returns the
  exact count (64-bit collisions are ~n²/2⁶⁵ — negligible and, being
  hash-deterministic, reproducible), which is what makes the headline query
  hash-checkable against DuckDB's COUNT(DISTINCT). Std error above k:
  ~1/√(k-1) (Beyer et al., "On Synopses for Distinct-Value Estimation Under
  Multiset Operations", SIGMOD'07).
* ``hll_distinct`` — 2^p max-of-rho registers (Flajolet et al., HyperLogLog,
  AofA'07), std error 1.04/√(2^p) (~0.81% at the default p=14, 16 KiB per
  partial). Small-range linear-counting correction included; the 64-bit hash
  removes the need for the large-range correction. Always an estimate —
  exposed as a rows-only query (no SQL oracle can replay the registers);
  error bounds are pinned by tests at three cardinalities.

Partials are ONE row per input block; the driver folds them in a stream
(``iter_batches``), so driver memory is two partials, never blocks × partial.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def _hashes(table: pa.Table, col: str) -> np.ndarray:
    """uint64 hashes of one column, vectorized, process-stable."""
    return pd.util.hash_pandas_object(table.select([col]).to_pandas()[col], index=False).to_numpy().astype(np.uint64)


def _fold_partials(ds, cols, partial_fn, merge_fn, init):
    """map_batches(partial) -> streamed driver fold. ``init`` is per-column."""
    state = {c: init() for c in cols}
    partials = ds.map_batches(partial_fn, batch_format="pyarrow")
    for batch in partials.iter_batches(batch_size=64, batch_format="pyarrow"):
        for c in cols:
            for blob in batch.column(c).to_pylist():
                state[c] = merge_fn(state[c], blob)
    return state


# ---------------------------------------------------------------------------
# KMV
# ---------------------------------------------------------------------------


def kmv_distinct(ds, cols, k: int = 8192) -> pa.Table:
    """Per-column distinct count: exact while true cardinality < k, a
    ~1/√(k-1) relative-error estimate above. Returns (col, n_distinct)
    sorted by col."""
    cols = [cols] if isinstance(cols, str) else list(cols)

    def partial(b: pa.Table) -> pa.Table:
        out = {}
        for c in cols:
            if b.num_rows and c in b.schema.names:
                h = np.unique(_hashes(b, c))
                if len(h) > k:
                    h = np.partition(h, k - 1)[:k]
                    h.sort()
                out[c] = [h.tobytes()]
            else:
                out[c] = [b""]
        return pa.table({c: pa.array(out[c], type=pa.binary()) for c in cols})

    def merge(acc: np.ndarray, blob: bytes) -> np.ndarray:
        if not blob:
            return acc
        h = np.union1d(acc, np.frombuffer(blob, dtype=np.uint64))
        return h[:k] if len(h) > k else h

    state = _fold_partials(ds, cols, partial, merge, lambda: np.array([], dtype=np.uint64))
    ests = []
    for c in cols:
        mins = state[c]
        if len(mins) < k:
            ests.append(len(mins))
        else:
            ests.append(int(round((k - 1) * (2.0**64) / float(mins[k - 1]))))
    order = np.argsort(cols)
    return pa.table(
        {"col": pa.array([cols[i] for i in order]), "n_distinct": pa.array([ests[i] for i in order], type=pa.int64())}
    )


# ---------------------------------------------------------------------------
# HyperLogLog
# ---------------------------------------------------------------------------


def _rho(h: np.ndarray, p: int) -> np.ndarray:
    """1 + leading-zero count of the (64-p)-bit suffix, capped at 64-p+1.
    Exact vectorized clz via 6-step binary search (no float log2 — float64
    cannot represent all uint64, which would break cross-run determinism)."""
    w = (h << np.uint64(p)).astype(np.uint64)
    r = np.zeros(w.shape, dtype=np.uint8)  # floor(log2(w)) for w>0
    y = w.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        m = y >= (np.uint64(1) << np.uint64(shift))
        r[m] += shift
        y[m] >>= np.uint64(shift)
    rho = np.where(w == 0, 64 - p + 1, np.minimum(63 - r.astype(np.int64) + 1, 64 - p + 1))
    return rho.astype(np.uint8)


def hll_distinct(ds, cols, p: int = 14) -> pa.Table:
    """Per-column HyperLogLog estimate. Returns (col, n_distinct_est) sorted
    by col. Partial = 2^p uint8 registers per block, merged by max."""
    cols = [cols] if isinstance(cols, str) else list(cols)
    m = 1 << p
    alpha = 0.7213 / (1 + 1.079 / m) if m >= 128 else {16: 0.673, 32: 0.697, 64: 0.709}[m]

    def partial(b: pa.Table) -> pa.Table:
        out = {}
        for c in cols:
            reg = np.zeros(m, dtype=np.uint8)
            if b.num_rows and c in b.schema.names:
                h = _hashes(b, c)
                idx = (h >> np.uint64(64 - p)).astype(np.int64)
                np.maximum.at(reg, idx, _rho(h, p))
            out[c] = [reg.tobytes()]
        return pa.table({c: pa.array(out[c], type=pa.binary()) for c in cols})

    def merge(acc: np.ndarray, blob: bytes) -> np.ndarray:
        return np.maximum(acc, np.frombuffer(blob, dtype=np.uint8))

    state = _fold_partials(ds, cols, partial, merge, lambda: np.zeros(m, dtype=np.uint8))
    ests = []
    for c in cols:
        reg = state[c].astype(np.float64)
        est = alpha * m * m / np.sum(np.exp2(-reg))
        zeros = int(np.count_nonzero(state[c] == 0))
        if est <= 2.5 * m and zeros:
            est = m * np.log(m / zeros)  # linear counting, small range
        ests.append(int(round(est)))
    order = np.argsort(cols)
    return pa.table(
        {"col": pa.array([cols[i] for i in order]), "n_distinct_est": pa.array([ests[i] for i in order], type=pa.int64())}
    )


# ---------------------------------------------------------------------------
# Heavy hitters (Misra-Gries candidates + exact verification pass)
# ---------------------------------------------------------------------------


# ---------------------------------------------------------------------------
# Quantile summary (MRL collapse scheme)
# ---------------------------------------------------------------------------


def _collapse(a: np.ndarray, b: np.ndarray, offset: int) -> np.ndarray:
    """Collapse two sorted weight-2^L buffers into one weight-2^(L+1) buffer:
    merge (C mergesort via np.sort on the concat) and keep every 2nd element
    starting at ``offset``. Alternating the offset across collapses is what
    keeps the rank error at O(levels/k) instead of biasing one direction
    (Manku-Rajagopalan-Lindsay, SIGMOD'98)."""
    m = np.sort(np.concatenate([a, b]), kind="mergesort")
    return m[offset::2]


class _MRL:
    """One buffer per level, weight 2^level per element; promoting collapses
    cascade like binary-counter carries, so memory is k × log(n/k)."""

    def __init__(self, k: int):
        self.k = k
        self.levels: dict[int, np.ndarray] = {}
        self.offsets: dict[int, int] = {}  # per-level alternation state
        self.n = 0

    def _put(self, level: int, buf: np.ndarray) -> None:
        while level in self.levels:
            other = self.levels.pop(level)
            if len(other) + len(buf) <= self.k:
                # lossless same-level merge while it fits — this is what
                # makes the summary EXACT below k total values (and cheaper
                # everywhere: short tails stop forcing lossy collapses)
                buf = np.sort(np.concatenate([other, buf]), kind="mergesort")
                break
            off = self.offsets.get(level, 0)
            self.offsets[level] = 1 - off
            buf = _collapse(other, buf, off)
            level += 1
        self.levels[level] = buf

    def add_values(self, vals: np.ndarray) -> None:
        self.n += len(vals)
        vals = np.sort(vals, kind="mergesort")
        for i in range(0, len(vals), self.k):
            # short tails collapse against full buffers; the halved count
            # drifts the total weight by < one buffer per level — inherent
            # to the scheme, bounded by the same O(levels/k) rank error
            self._put(0, vals[i:i + self.k])

    def merge_buffer(self, level: int, buf: np.ndarray, n: int) -> None:
        self.n += n
        self._put(level, buf)

    def query(self, qs) -> np.ndarray:
        """Rank-weighted quantile_disc: the value whose cumulative weight
        first reaches ceil(q * n)."""
        if self.n == 0:
            return np.array([np.nan] * len(qs))
        vals = np.concatenate([b for b in self.levels.values()])
        wts = np.concatenate([np.full(len(b), 1 << lv, dtype=np.int64) for lv, b in self.levels.items()])
        order = np.argsort(vals, kind="mergesort")
        vals, wts = vals[order], wts[order]
        cum = np.cumsum(wts)
        total = cum[-1]
        out = []
        for q in qs:
            target = max(1, int(np.ceil(q * total)))
            out.append(vals[np.searchsorted(cum, target)])
        return np.array(out)


def quantile_sketch(ds, col: str, quantiles, k: int = 4096) -> pa.Table:
    """Mergeable deterministic quantile summary over ``col`` (MRL collapse
    scheme): each block contributes a fixed-memory summary (k × #levels
    float64s), folded on the driver — no sort, no exchange. EXACT-BELOW-k
    contract per block-collapse structure: while the TOTAL row count is ≤ k
    the summary holds every value and the result equals quantile_disc (the
    hash-checked regime, same pattern as kmv_distinct); above it the rank
    error is O(log(n/k)/k) with deterministic alternating-offset collapses
    (error pinned by tests at 1M rows). NULLs are dropped (DuckDB quantile
    semantics). Returns (q, value) sorted by q."""
    import pyarrow.compute as pc

    qs = list(quantiles)

    def partial(b: pa.Table) -> pa.Table:
        s = _MRL(k)
        if b.num_rows and col in b.schema.names:
            arr = b.column(col)
            arr = arr.filter(pc.is_valid(arr)) if arr.null_count else arr
            s.add_values(arr.to_numpy(zero_copy_only=False).astype("float64"))
        lvls = sorted(s.levels)
        return pa.table({
            "lvl": pa.array([lvls], type=pa.list_(pa.int32())),
            "buf": pa.array([[s.levels[lv].tobytes() for lv in lvls]], type=pa.list_(pa.binary())),
            "n": pa.array([s.n], type=pa.int64()),
        })

    acc = _MRL(k)
    for batch in ds.map_batches(partial, batch_format="pyarrow").iter_batches(batch_size=64, batch_format="pyarrow"):
        for lvls, bufs, n in zip(batch.column("lvl").to_pylist(), batch.column("buf").to_pylist(), batch.column("n").to_pylist()):
            # distribute n across the buffers by their weighted sizes
            for lv, blob in zip(lvls, bufs):
                buf = np.frombuffer(blob, dtype=np.float64)
                acc.merge_buffer(lv, buf, len(buf) * (1 << lv))
    vals = acc.query(qs)
    return pa.table({"q": pa.array(qs, type=pa.float64()), "value": pa.array(vals, type=pa.float64())})


def grouped_quantile_sketch(ds, key: str, col: str, quantiles, k: int = 4096, num_buckets: int = 64):
    """Per-group mergeable quantile summaries: one fixed-memory MRL summary
    per (batch, group) combiner partial, then ONE coarse-bucket keyed
    exchange of summary BLOBS (k x #levels float64s per group per block —
    never raw rows) merged + queried vectorized per bucket. Same contract as
    ``quantile_sketch``: EXACT below k rows per group (the hash-checked
    regime vs per-group quantile_disc), O(log(n/k)/k) deterministic rank
    error above; NULLs dropped. Returns a Dataset of (key, q, value) sorted.

    Scale shape: the exchange ships #groups x #blocks summary rows — for a
    hot group that is #blocks blobs of k floats landing in one bucket, the
    same bound the global sketch's driver fold pays, but spread over buckets
    for high-cardinality keys (where a sort-based exact quantile would be an
    all-to-all over every raw row)."""
    import pandas as pd
    import pyarrow.compute as pc

    from text_to_graph_ray.functions.agg import BUCKET_COL, bucket_exchange, with_bucket
    from text_to_graph_ray.util import sort_coalesced

    qs = [float(q) for q in quantiles]
    part_schema = pa.schema(
        [
            (key, pa.string()),
            ("lvl", pa.list_(pa.int32())),
            ("buf", pa.list_(pa.binary())),
            ("n", pa.int64()),
        ]
    )
    out_schema = pa.schema([(key, pa.string()), ("q", pa.float64()), ("value", pa.float64())])

    def partial(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return part_schema.empty_table()
        mask = pc.is_valid(b.column(col))
        if not pc.all(mask).as_py():
            b = b.filter(mask)
            if b.num_rows == 0:
                return part_schema.empty_table()
        df = pd.DataFrame(
            {key: b.column(key).to_pylist(), "__v": b.column(col).to_numpy(zero_copy_only=False).astype("float64")}
        )
        keys_out, lvls_out, bufs_out, ns_out = [], [], [], []
        for kv, g in df.groupby(key, sort=False):
            s = _MRL(k)
            s.add_values(g["__v"].to_numpy())
            lvls = sorted(s.levels)
            keys_out.append(kv)
            lvls_out.append(lvls)
            bufs_out.append([s.levels[lv].tobytes() for lv in lvls])
            ns_out.append(s.n)
        return pa.table(
            {
                key: pa.array(keys_out, type=pa.string()),
                "lvl": pa.array(lvls_out, type=pa.list_(pa.int32())),
                "buf": pa.array(bufs_out, type=pa.list_(pa.binary())),
                "n": pa.array(ns_out, type=pa.int64()),
            },
            schema=part_schema,
        )

    def per_bucket(df: pd.DataFrame) -> pa.Table:
        if len(df) == 0:
            return out_schema.empty_table()
        df = df.drop(columns=[BUCKET_COL])
        keys_out, q_out, v_out = [], [], []
        for kv, g in df.groupby(key, sort=False):
            acc = _MRL(k)
            for lvls, bufs in zip(g["lvl"], g["buf"]):
                for lv, blob in zip(lvls, bufs):
                    buf = np.frombuffer(blob, dtype=np.float64)
                    acc.merge_buffer(int(lv), buf, len(buf) * (1 << int(lv)))
            vals = acc.query(qs)
            keys_out.extend([kv] * len(qs))
            q_out.extend(qs)
            v_out.extend(vals.tolist())
        return pa.table(
            {
                key: pa.array(keys_out, type=pa.string()),
                "q": pa.array(q_out, type=pa.float64()),
                "value": pa.array(v_out, type=pa.float64()),
            },
            schema=out_schema,
        )

    pre = ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
    out = bucket_exchange(
        with_bucket(pre, key, num_buckets, in_schema=part_schema), per_bucket, out_schema, num_buckets
    )
    return sort_coalesced(out, [key, "q"])

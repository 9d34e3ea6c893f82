"""Deduplication operators over a documents table.

All operators are Dataset -> Dataset transforms; heavy math is numpy inside
``map_batches``; the only all-to-all exchanges are the final small groupbys
over pre-aggregated/candidate rows (combiner-first, SURVEY §7.3).

* exact: content-hash groupby, keep-first (min id) — the distributed analogue
  of the reference's sha-256 document cache uniqueness
  (/root/reference/graph_extractor/src/sqlite_support.py:67, my_hash.py:4-16).
* MinHash+LSH: word-shingle -> k-perm minhash -> banded buckets -> candidate
  pairs -> Jaccard estimate from signatures. Signatures ride along with band
  rows (k*8 bytes/row) so candidate verification needs no second pass over
  the corpus; at 10^12-doc scale swap the ride-along for a signature join.
* n-gram-Jaccard verified: LSH candidates hash-joined back to the corpus
  texts (two distributed joins), exact Jaccard inside map_batches — nothing
  O(candidates) on the driver.
* SimHash: 64-bit token-hash majority fingerprint, banded into 4x16-bit
  buckets; hamming-distance verify within buckets (exact for hamming <= 3).
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_MERSENNE = (1 << 61) - 1

# above this corpus size the ride-along minhash plan ships each signature
# `bands` times; the signature-join plan ships it once — switch automatically
SIGJOIN_AUTO_ROWS = 100_000  # ride-along ships docs x bands x k x 8B of sigs; measured loser by 400k docs (131.7 vs 59.3 s at 32 cpus)


def _stable_hash_array(strings: list[str]) -> np.ndarray:
    return np.fromiter((zlib.crc32(s.encode("utf-8")) for s in strings), dtype=np.uint64, count=len(strings))


def _perm_params(k: int, seed: int):
    rng = np.random.RandomState(seed)
    a = rng.randint(1, _MERSENNE, size=k, dtype=np.int64).astype(np.uint64)
    b = rng.randint(0, _MERSENNE, size=k, dtype=np.int64).astype(np.uint64)
    return a, b


def word_shingles(text: str, n: int = 3) -> list[str]:
    toks = text.split()
    if len(toks) < n:
        return [" ".join(toks)] if toks else []
    return [" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)]


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def exact_dedup_keep_min(ds, text_col: str = "text", id_col: str = "doc_id"):
    """One survivor (min id) per distinct content. Per-batch partial min before
    the groupby so duplicate-heavy corpora pre-collapse in the combiner.

    Kernel note: hashlib's per-string sha256 is already C-speed and measured
    FASTER than a vectorized DuckDB sha256 pass over the same Arrow batch
    (0.18 s vs 0.32 s / 20k 400-token docs), so the loop stays; the digest is
    kept as 32 raw bytes (not 64-char hex), halving the hash column's bytes
    on the exchange."""
    import hashlib

    import pandas as pd
    from ray.data.aggregate import Min

    def partial(b: pa.Table) -> pa.Table:
        h = [hashlib.sha256((t or "").encode("utf-8")).digest() for t in b.column(text_col).to_pylist()]
        df = pd.DataFrame({"h": h, id_col: b.column(id_col).to_numpy(zero_copy_only=False)})
        out = df.groupby("h", as_index=False, sort=False)[id_col].min()
        return pa.table({"h": pa.array(out["h"], type=pa.binary()), id_col: pa.array(out[id_col], type=pa.int64())})

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby("h").aggregate(Min(id_col, alias_name=id_col)).select_columns([id_col]).sort(id_col)


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------


def _metadata_row_count(ds):
    """Row count of a read-shaped dataset from its parquet footers
    (``util.parquet_row_count`` over ``read_parquet_clean``'s source hint,
    else over ``input_files()``): appended map stages make ``ds.count()``
    execute a full scan, which the signature_join="auto" decision must not
    pay. Returns None when footers can't answer (caller falls back)."""
    import os

    from text_to_graph_ray.util import parquet_row_count

    src = getattr(ds, "_graft_source", None)  # read_parquet_clean's hint
    try:
        if isinstance(src, str) and os.path.exists(src):
            return parquet_row_count(src)
        files = ds.input_files()
        return parquet_row_count(files) if files else None
    except Exception:
        return None


_MINHASHER_CACHE: dict = {}


def minhash_signatures(ds, text_col="text", id_col="doc_id", k=64, shingle=3, seed=42):
    """Signature stage as a TASK pool with process-local cached state.

    MinHasher's state (k permutation params) is microseconds to build, so an
    actor pool buys nothing here — and costs a lot: Ray's autoscaling actor
    pool ramped to only ~8-9 actors regardless of the (1, N) ceiling on a
    400k-doc corpus, pinning the stage at ~30 s at BOTH 8 and 32 CPUs
    (measured). As plain tasks the stage scales with the task scheduler:
    31.2 s -> 10.2 s (3.06x) on the same corpus. Worker processes are reused,
    so the per-process cache makes state construction once-per-worker, the
    actor-pool property that actually mattered."""

    key = (text_col, id_col, k, shingle, seed)

    def sig_batch(b: pa.Table) -> pa.Table:
        h = _MINHASHER_CACHE.get(key)
        if h is None:
            h = _MINHASHER_CACHE[key] = MinHasher(text_col=text_col, id_col=id_col, k=k, shingle=shingle, seed=seed)
        return h(b)

    return ds.map_batches(sig_batch, batch_format="pyarrow")


class MinHasher:
    """Signature kernel: permutation parameters built once per process (see
    minhash_signatures) or per actor."""

    def __init__(self, text_col="text", id_col="doc_id", k=64, shingle=3, seed=42):
        self.text_col, self.id_col = text_col, id_col
        self.k, self.shingle = k, shingle
        self.a, self.b = _perm_params(k, seed)

    def signature(self, text: str) -> np.ndarray:
        sh = word_shingles(text, self.shingle)
        if not sh:
            return np.full(self.k, np.uint64(_MERSENNE), dtype=np.uint64)
        base = _stable_hash_array(sh)  # (S,)
        # (S, k) universal hashing, min over shingles
        vals = (base[:, None] * self.a[None, :] + self.b[None, :]) % np.uint64(_MERSENNE)
        return vals.min(axis=0)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col).to_pylist()
        sigs = [self.signature(t or "") for t in batch.column(self.text_col).to_pylist()]
        return pa.table(
            {
                "id": pa.array(ids, type=pa.int64()),
                "sig": pa.array([s.tolist() for s in sigs], type=pa.list_(pa.uint64())),
            }
        )


def _band_rows(batch: pa.Table, bands: int, shuffle_buckets: int = 64, include_sig: bool = True) -> pa.Table:
    """signature rows -> (bucket, band, band_hash, id[, sig]). ``bucket`` is a
    stable hash of (band, band_hash) so the exchange groups by ~64 coarse
    buckets (one vectorized merge task each) instead of one task per LSH
    bucket — same output, none of the per-tiny-group scheduling overhead.
    ``include_sig=False`` (the signature-join plan) never materializes the
    per-band signature copies at all."""
    ids = batch.column("id").to_pylist()
    sigs = batch.column("sig").to_pylist()
    out_bucket, out_band, out_hash, out_id, out_sig = [], [], [], [], []
    for i, sig in zip(ids, sigs):
        arr = np.asarray(sig, dtype=np.uint64)
        r = len(arr) // bands
        for band in range(bands):
            h = zlib.crc32(arr[band * r : (band + 1) * r].tobytes())
            out_bucket.append(zlib.crc32(f"{band}:{h}".encode()) % shuffle_buckets)
            out_band.append(band)
            out_hash.append(h)
            out_id.append(i)
            if include_sig:
                out_sig.append(sig)
    cols = {
        "bucket": pa.array(out_bucket, type=pa.int64()),
        "band": pa.array(out_band, type=pa.int32()),
        "band_hash": pa.array(out_hash, type=pa.int64()),
        "id": pa.array(out_id, type=pa.int64()),
    }
    if include_sig:
        cols["sig"] = pa.array(out_sig, type=pa.list_(pa.uint64()))
    return pa.table(cols)


_PAIR_EST_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64()), ("est_jaccard", pa.float64())])
_PAIR_ID_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64())])
_PAIR_HAM_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64()), ("hamming", pa.int64())])


def _bucket_pairs(group, max_bucket: int = 200) -> pa.Table:
    """All pairs within each (band, band_hash) LSH bucket of one coarse shuffle
    bucket, with signature-estimated Jaccard. LSH buckets above max_bucket are
    truncated — a hot bucket at real scale means a degenerate shingle — and
    the DROPPED PAIR COUNT is carried out as a sentinel row
    (a = -1 - coarse_bucket, b = dropped, est_jaccard = 2.0: unique key per
    group, passes the threshold filter, stripped + summed + surfaced by the
    caller — no silent caps). Returns Arrow with a FIXED schema so all-empty
    buckets can't destabilize the downstream sort/union schema."""
    a_out, b_out, est = [], [], []
    dropped = 0
    for (_, _), g in group.groupby(["band", "band_hash"], sort=False):
        if len(g) < 2:
            continue
        m = len(g)
        if m > max_bucket:
            dropped += m * (m - 1) // 2 - max_bucket * (max_bucket - 1) // 2
        order = np.argsort(list(g["id"]))[:max_bucket]
        ids = [list(g["id"])[i] for i in order]
        sigs = [np.asarray(list(g["sig"])[i], dtype=np.uint64) for i in order]
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                a_out.append(ids[i])
                b_out.append(ids[j])
                est.append(float((sigs[i] == sigs[j]).mean()))
    if dropped:
        a_out.append(-1 - int(group["bucket"].iloc[0]))
        b_out.append(dropped)
        est.append(2.0)
    return pa.table(
        {"a": pa.array(a_out, type=pa.int64()), "b": pa.array(b_out, type=pa.int64()), "est_jaccard": pa.array(est, type=pa.float64())},
        schema=_PAIR_EST_SCHEMA,
    )


def _strip_pair_sentinels(pairs_mat, stats: dict | None, plan: str):
    """Split truncation-sentinel rows (a < 0) out of a MATERIALIZED pair
    dataset: returns (clean_ds, clean_count) and surfaces the dropped-pair
    total — loud driver-side print + optional ``stats`` dict (bench/manifest
    counter). Sentinel rows are at most one per coarse shuffle bucket, so the
    driver-side collect is bounded by the bucket count."""
    import pyarrow.compute as pc_

    from text_to_graph_ray.util import compact_nonempty

    total = pairs_mat.count()
    sent = pairs_mat.map_batches(
        lambda t: t.filter(pc_.less(t.column("a"), 0)), batch_format="pyarrow"
    ).take_all()
    if not sent:
        if stats is not None:
            stats["lsh_pairs_dropped"] = 0
        return pairs_mat, total
    dropped = int(sum(r["b"] for r in sent))
    if stats is not None:
        stats["lsh_pairs_dropped"] = dropped
    print(
        f"WARNING: minhash LSH ({plan} plan) truncated {dropped} candidate pairs "
        f"across {len(sent)} hot buckets (max_bucket cap) — degenerate shingles at scale lose recall"
    )
    clean = compact_nonempty(
        pairs_mat.map_batches(
            lambda t: t.filter(pc_.greater_equal(t.column("a"), 0)), batch_format="pyarrow"
        ).materialize()
    )
    return clean, total - len(sent)


def _minhash_exchange_shape(n_docs: int, bands: int, rows_per_partition: int):
    """Size the band-row repartition AND the coarse bucket cardinality from
    the data (bucket_exchange discipline): partition count grows linearly
    with the corpus instead of capping at a literal 32 (which made
    per-partition bytes grow unboundedly), and the bucket id space stays
    >= 2 buckets per sampled sort range so no empty ranges appear on small
    inputs."""
    n_band_rows = n_docs * bands
    parts = max(1, n_band_rows // rows_per_partition + 1)
    shuffle_buckets = max(64, 2 * parts)
    return parts, shuffle_buckets


def minhash_near_dup_pairs(
    ds, text_col="text", id_col="doc_id", k=64, bands=16, shingle=3, threshold=0.7, seed=42, concurrency=4,
    signature_join=False, stats: dict | None = None,
):
    """Documents -> candidate near-dup pairs (a < b, est_jaccard >= threshold),
    deduped across bands, sorted. (``concurrency`` is retained for API
    compatibility; the signature stage now runs as a task pool — see
    minhash_signatures.)

    Two physically different plans, value-identical output (asserted in
    tests):
    * default (ride-along): each band row carries the k-perm signature, so
      pair estimation happens inside the bucket merge — one exchange, but the
      signature travels ``bands`` times (k*8 B × bands per doc);
    * ``signature_join=True`` (the 10^12-doc shape): band rows carry ids
      only; distinct candidate pairs come out of the bucket groupby and the
      signatures are hash-joined back (each signature crosses the wire once).

    ``signature_join="auto"`` picks the join plan when the corpus exceeds
    SIGJOIN_AUTO_ROWS (parquet-metadata count — no execution), mirroring the
    other guarded small-side decisions.
    """
    n_docs = _metadata_row_count(ds)
    if n_docs is None:
        n_docs = ds.count()
    if signature_join == "auto":
        signature_join = n_docs >= SIGJOIN_AUTO_ROWS
    sigs = minhash_signatures(ds, text_col=text_col, id_col=id_col, k=k, shingle=shingle, seed=seed)
    if signature_join:
        return _minhash_pairs_signature_join(sigs, bands, threshold, n_docs=n_docs, stats=stats)
    # exchange shape sized from the data (not a literal constant): band rows
    # carry the k-perm signature (~k*8 B each), so partitions are kept small
    # and their COUNT grows with the corpus; the coarse bucket cardinality
    # grows with it so per-merge-task work stays bounded.
    parts, shuffle_buckets = _minhash_exchange_shape(n_docs, bands, rows_per_partition=32_768)
    band_rows = sigs.map_batches(
        lambda b: _band_rows(b, bands, shuffle_buckets=shuffle_buckets), batch_format="pyarrow"
    ).repartition(parts)
    pairs = band_rows.groupby("bucket").map_groups(_bucket_pairs, batch_format="pandas")
    pairs = pairs.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("est_jaccard"), threshold)), batch_format="pyarrow"
    )
    # dedup across bands: keep max estimate per pair.  The candidate stream is
    # about to be shuffled (materialized) by the groupby anyway; materializing
    # it first buys an exact count to size the shuffle with: at most
    # distinct/2 partitions (distinct >= cnt/bands), so every sampled sort
    # range holds >= 2 keys and the groupby/sort emit no schema-less empty
    # partitions, while ~1M-row partitions keep the count cluster-sized at
    # real scale.
    from ray.data.aggregate import Max

    from text_to_graph_ray.util import compact_nonempty

    pairs = compact_nonempty(pairs.materialize())  # empty candidate blocks would pass fused chains schema-less
    pairs, cnt = _strip_pair_sentinels(pairs, stats, plan="ride-along")
    if cnt == 0:
        return _empty_pairs("est_jaccard")
    n = max(1, min(cnt // (2 * bands), cnt // 1_000_000 + 1))
    return (
        pairs.repartition(n)
        .groupby(["a", "b"])
        .aggregate(Max("est_jaccard", alias_name="est_jaccard"))
        .sort(["a", "b"])
    )


def _minhash_pairs_signature_join(sigs, bands: int, threshold: float, n_docs: int, stats: dict | None = None):
    import pandas as pd
    from ray.data.aggregate import Min

    sigs = sigs.materialize()  # consumed by banding AND by both join sides
    # ids-only band rows are ~24 B each — larger partitions than the
    # ride-along plan, count still sized from the corpus
    parts, shuffle_buckets = _minhash_exchange_shape(n_docs, bands, rows_per_partition=200_000)

    def band_id_rows(batch: pa.Table) -> pa.Table:
        return _band_rows(batch, bands, shuffle_buckets=shuffle_buckets, include_sig=False)

    def bucket_id_pairs(group: pd.DataFrame, max_bucket: int = 200) -> pa.Table:
        a_out, b_out = [], []
        dropped = 0
        for (_, _), g in group.groupby(["band", "band_hash"], sort=False):
            if len(g) < 2:
                continue
            m = len(g)
            if m > max_bucket:
                dropped += m * (m - 1) // 2 - max_bucket * (max_bucket - 1) // 2
            members = sorted(g["id"])[:max_bucket]  # same cap + membership as _bucket_pairs
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    a_out.append(members[i])
                    b_out.append(members[j])
        if dropped:
            # sentinel survives the distinct groupby (unique per coarse
            # bucket) and is stripped + surfaced after the materialize
            a_out.append(-1 - int(group["bucket"].iloc[0]))
            b_out.append(dropped)
        return pa.table(
            {"a": pa.array(a_out, type=pa.int64()), "b": pa.array(b_out, type=pa.int64())}, schema=_PAIR_ID_SCHEMA
        )

    cand = (
        sigs.map_batches(band_id_rows, batch_format="pyarrow")
        .repartition(parts)
        .groupby("bucket")
        .map_groups(bucket_id_pairs, batch_format="pandas")
        .groupby(["a", "b"])
        .aggregate(Min("a", alias_name="__d"))  # distinct (a, b) across bands
        .map_batches(lambda b: b.select(["a", "b"]), batch_format="pyarrow")
        .materialize()
    )
    cand, n_cand = _strip_pair_sentinels(cand, stats, plan="signature-join")
    if n_cand == 0:
        return _empty_pairs("est_jaccard")

    n_parts = join_partitions_for()

    def sig_side(key: str, out: str):
        # Ray's hash join rejects list<> payload columns — pack the k-perm
        # signature as one fixed-width binary value (k*8 B) for the ride
        def fn(b: pa.Table) -> pa.Table:
            packed = [np.asarray(s, dtype=np.uint64).tobytes() for s in b.column("sig").to_pylist()]
            return pa.table({key: b.column("id"), out: pa.array(packed, type=pa.binary())})

        return fn

    sa = sigs.map_batches(sig_side("a", "__sig_a"), batch_format="pyarrow")
    sb = sigs.map_batches(sig_side("b", "__sig_b"), batch_format="pyarrow")
    j = cand.join(sa, join_type="inner", num_partitions=n_parts, on=("a",), partition_size_hint=32 << 20)
    j = j.join(sb, join_type="inner", num_partitions=n_parts, on=("b",), partition_size_hint=32 << 20)

    def estimate(b: pa.Table) -> pa.Table:
        est = [
            float((np.frombuffer(x, dtype=np.uint64) == np.frombuffer(y, dtype=np.uint64)).mean())
            for x, y in zip(b.column("__sig_a").to_pylist(), b.column("__sig_b").to_pylist())
        ]
        out = b.select(["a", "b"]).append_column("est_jaccard", pa.array(est, type=pa.float64()))
        return out.filter(pc.greater_equal(out.column("est_jaccard"), threshold))

    from text_to_graph_ray.util import compact_nonempty

    est_pairs = compact_nonempty(j.map_batches(estimate, batch_format="pyarrow").materialize())
    cnt = est_pairs.count()
    if cnt == 0:
        return _empty_pairs("est_jaccard")
    # (a, b) already distinct here — size the sort like the default plan
    n = max(1, min(cnt // 2, cnt // 1_000_000 + 1))
    return est_pairs.repartition(n).sort(["a", "b"])


def _empty_pairs(*extra_float_cols: str):
    import ray.data as rd

    cols = {
        "a": pa.array([], type=pa.int64()),
        "b": pa.array([], type=pa.int64()),
    }
    for c in extra_float_cols:
        cols[c] = pa.array([], type=pa.float64())
    return rd.from_arrow(pa.table(cols))


def join_partitions_for(requested: int | None = None) -> int:
    """Hash-join partition count sized to the cluster: Ray's join aggregator
    actors reserve CPU/memory per partition, so a partition count far above
    the CPU budget starves the pool and deadlocks the pipeline when several
    joins execute concurrently. Cap at ~1/4 of cluster CPUs (>= 2)."""
    import ray

    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    cap = max(2, cpus // 4)
    return min(requested, cap) if requested else cap


def verified_near_dup_pairs(
    ds, text_col="text", id_col="doc_id", threshold=0.5, bands=32, shingle=3, seed=42, num_partitions=None
):
    """MinHash-LSH candidates verified with EXACT n-gram Jaccard — fully
    distributed. The candidate pair table is joined back to the corpus texts
    with two hash-shuffle joins (Ray Data native ``Dataset.join``) and the
    Jaccard verification runs inside ``map_batches`` on the joined rows.
    Nothing O(candidates) or O(corpus) ever lands on the driver: on a
    duplicate-heavy 100 TB corpus the candidate set and its texts stay in the
    object store end-to-end (the corpus passes the exchange once per join
    side — the standard cost of a distributed join)."""
    cand = minhash_near_dup_pairs(
        ds, text_col=text_col, id_col=id_col, bands=bands, shingle=shingle, threshold=max(0.0, threshold - 0.2), seed=seed
    ).materialize()  # object-store resident; avoids re-running LSH for count + join
    if cand.count() == 0:
        return _empty_pairs("est_jaccard", "jaccard")

    def _side(col: str, out: str):
        def fn(b: pa.Table) -> pa.Table:
            return pa.table({col: b.column(id_col), out: b.column(text_col)})

        return fn

    n_parts = join_partitions_for(num_partitions)
    hint = 32 << 20  # pair/text partitions are small; keeps aggregator memory reservations sane
    ta = ds.map_batches(_side("a", "__text_a"), batch_format="pyarrow")
    tb = ds.map_batches(_side("b", "__text_b"), batch_format="pyarrow")
    j = cand.join(ta, join_type="inner", num_partitions=n_parts, on=("a",), partition_size_hint=hint)
    j = j.join(tb, join_type="inner", num_partitions=n_parts, on=("b",), partition_size_hint=hint)

    def verify(b: pa.Table) -> pa.Table:
        jac = [
            round(exact_jaccard(x or "", y or "", shingle), 6)
            for x, y in zip(b.column("__text_a").to_pylist(), b.column("__text_b").to_pylist())
        ]
        out = b.drop_columns(["__text_a", "__text_b"]).append_column("jaccard", pa.array(jac, type=pa.float64()))
        return out.filter(pc.greater_equal(out.column("jaccard"), threshold))

    verified = j.map_batches(verify, batch_format="pyarrow").materialize()  # pair-table sized
    if verified.count() == 0:
        return _empty_pairs("est_jaccard", "jaccard")  # all-empty blocks lose schema through sort
    return verified.sort(["a", "b"])


def exact_jaccard(text_a: str, text_b: str, shingle: int = 3) -> float:
    sa, sb = set(word_shingles(text_a, shingle)), set(word_shingles(text_b, shingle))
    if not sa and not sb:
        return 1.0
    if not sa or not sb:
        return 0.0
    return len(sa & sb) / len(sa | sb)


def near_dup_survivors(
    ds,
    text_col="text",
    id_col="doc_id",
    threshold=0.7,
    k=64,
    bands=16,
    shingle=3,
    seed=42,
    max_rounds=64,
    cc_collect_max=2_000_000,
):
    """End-to-end near-dedup: MinHash-LSH pairs -> connected components ->
    keep the min id per component. Docs outside the pair graph survive.

    Components come from the shared guarded operator
    (``functions.graph.connected_components``: driver union-find while the
    pair graph fits cc_collect_max, distributed min-label propagation above
    it — both value-identical, tests force cc_collect_max=0). The removed-id
    set is broadcast as a filter while small, else anti-joined. Exact
    duplicates have est_jaccard 1.0 and are swept up too."""
    import ray

    ids_only = ds.map_batches(lambda b: pa.table({id_col: b.column(id_col)}), batch_format="pyarrow")
    pairs = minhash_near_dup_pairs(
        ds, text_col=text_col, id_col=id_col, k=k, bands=bands, shingle=shingle, threshold=threshold, seed=seed
    ).materialize()
    if pairs.count() == 0:
        return ids_only.sort(id_col)

    from text_to_graph_ray.functions.graph import connected_components

    comp = connected_components(pairs, a_col="a", b_col="b", max_rounds=max_rounds, collect_max=cc_collect_max)
    removed_ds = comp.map_batches(
        lambda b: b.filter(pc.invert(pc.equal(b.column("node"), b.column("component")))).select(["node"]),
        batch_format="pyarrow",
    ).materialize()
    return _drop_removed(ids_only, removed_ds, id_col, cc_collect_max)


def _drop_removed(ids_only, removed_ds, id_col: str, cc_collect_max: int):
    """Shared survivor tail: drop the (materialized) removed-id set from the
    id stream — broadcast filter while the set fits ``cc_collect_max``,
    distributed left-anti join past it. Both value-identical (tests force
    cc_collect_max=0)."""
    import ray

    n_removed = removed_ds.count()
    if n_removed == 0:
        return ids_only.sort(id_col)

    if n_removed <= cc_collect_max:
        removed = pa.array(sorted(r["node"] for r in removed_ds.take_all()), type=pa.int64())
        rm_ref = ray.put(removed)

        def keep(b: pa.Table) -> pa.Table:
            return b.filter(pc.invert(pc.is_in(b.column(id_col), value_set=ray.get(rm_ref))))

        return ids_only.map_batches(keep, batch_format="pyarrow").sort(id_col)

    rm = removed_ds.map_batches(
        lambda b: pa.table({id_col: b.column("node"), "__rm": pa.array([1] * b.num_rows, type=pa.int64())}),
        batch_format="pyarrow",
    )
    j = ids_only.join(
        rm, join_type="left_outer", num_partitions=join_partitions_for(), on=(id_col,), partition_size_hint=32 << 20
    )
    surv = j.map_batches(lambda b: b.filter(pc.is_null(b.column("__rm"))).select([id_col]), batch_format="pyarrow")
    return surv.sort(id_col)


def survivors_best_quality(
    ds,
    text_col="text",
    id_col="doc_id",
    threshold=0.7,
    k=64,
    bands=16,
    shingle=3,
    seed=42,
    max_rounds=64,
    cc_collect_max=2_000_000,
):
    """Near-dedup keeping the BEST-QUALITY member per near-dup cluster
    (quality desc, then min id) instead of the min id — the curation-grade
    survivor rule: pretraining pipelines keep the highest-quality copy.

    Same distributed shape as near_dup_survivors (minhash pairs -> guarded
    connected components); the per-cluster winner is ONE
    ``topk_per_group(k=1)`` exchange over the components⋈quality hash join
    (quality = the same hash-checked text.quality_score kernel), and the
    removed set follows the shared guarded broadcast / anti-join tail."""
    from text_to_graph_ray.functions.agg import topk_per_group
    from text_to_graph_ray.functions.graph import connected_components
    from text_to_graph_ray.functions.text import quality_score

    ids_only = ds.map_batches(lambda b: pa.table({id_col: b.column(id_col)}), batch_format="pyarrow")
    pairs = minhash_near_dup_pairs(
        ds, text_col=text_col, id_col=id_col, k=k, bands=bands, shingle=shingle, threshold=threshold, seed=seed
    ).materialize()
    if pairs.count() == 0:
        return ids_only.sort(id_col)

    comp = connected_components(pairs, a_col="a", b_col="b", max_rounds=max_rounds, collect_max=cc_collect_max)
    compj = comp.map_batches(
        lambda b: pa.table({id_col: b.column("node"), "component": b.column("component")}), batch_format="pyarrow"
    )
    qual = ds.map_batches(
        lambda b: quality_score(b, text_col=text_col, id_col=id_col).select([id_col, "quality"]),
        batch_format="pyarrow",
    )
    n_parts = join_partitions_for()
    hint = 32 << 20
    jq = compj.join(qual, join_type="inner", num_partitions=n_parts, on=(id_col,), partition_size_hint=hint)
    best_schema = pa.schema([(id_col, pa.int64()), ("component", pa.int64()), ("quality", pa.float64())])
    winners = topk_per_group(
        jq.map_batches(lambda b: b.select([id_col, "component", "quality"]), batch_format="pyarrow"),
        ["component"],
        order_col="quality",
        k=1,
        descending=True,
        tiebreak=id_col,
        out_schema=best_schema,
    )
    win = winners.map_batches(
        lambda b: pa.table({id_col: b.column(id_col), "__w": pa.array([1] * b.num_rows, type=pa.int64())}),
        batch_format="pyarrow",
    )
    jr = compj.join(win, join_type="left_outer", num_partitions=n_parts, on=(id_col,), partition_size_hint=hint)
    removed_ds = jr.map_batches(
        lambda b: pa.table({"node": b.filter(pc.is_null(b.column("__w"))).column(id_col)}), batch_format="pyarrow"
    ).materialize()
    return _drop_removed(ids_only, removed_ds, id_col, cc_collect_max)


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


def simhash64(text: str) -> int:
    toks = text.split()
    if not toks:
        return 0
    acc = np.zeros(64, dtype=np.int64)
    shifts = np.arange(64, dtype=np.uint64)
    for t in toks:
        h = np.uint64((zlib.crc32(t.encode()) << 32) | zlib.crc32(t[::-1].encode()))
        bits = (h >> shifts) & np.uint64(1)
        acc += np.where(bits.astype(bool), 1, -1)
    out = 0
    for i in range(64):
        if acc[i] > 0:
            out |= 1 << i
    return out


def simhash_near_dup_pairs(ds, text_col="text", id_col="doc_id", max_hamming=3):
    """4x16-bit banded SimHash buckets -> hamming-verified pairs. A pair within
    hamming<=3 of a 64-bit fingerprint shares at least one of 4 bands exactly
    (pigeonhole), so banding loses nothing."""
    import pandas as pd

    def fingerprints(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).to_pylist()
        fps = [simhash64(t or "") for t in b.column(text_col).to_pylist()]
        rows = {"bucket": [], "band": [], "band_val": [], "id": [], "fp": []}
        for i, fp in zip(ids, fps):
            for band in range(4):
                val = (fp >> (16 * band)) & 0xFFFF
                rows["bucket"].append(zlib.crc32(f"{band}:{val}".encode()) % 64)
                rows["band"].append(band)
                rows["band_val"].append(val)
                rows["id"].append(i)
                rows["fp"].append(fp)
        return pa.table(
            {
                "bucket": pa.array(rows["bucket"], type=pa.int64()),
                "band": pa.array(rows["band"], type=pa.int32()),
                "band_val": pa.array(rows["band_val"], type=pa.int64()),
                "id": pa.array(rows["id"], type=pa.int64()),
                "fp": pa.array(rows["fp"], type=pa.uint64()),
            }
        )

    def bucket_pairs(group: pd.DataFrame) -> pa.Table:
        a, b, h = [], [], []
        for (_, _), g in group.groupby(["band", "band_val"], sort=False):
            if len(g) < 2:
                continue
            ids = sorted(g["id"])
            fp_of = dict(zip(g["id"], (int(x) for x in g["fp"])))
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    d = bin(fp_of[ids[i]] ^ fp_of[ids[j]]).count("1")
                    if d <= max_hamming:
                        a.append(ids[i])
                        b.append(ids[j])
                        h.append(d)
        return pa.table(
            {"a": pa.array(a, type=pa.int64()), "b": pa.array(b, type=pa.int64()), "hamming": pa.array(h, type=pa.int64())},
            schema=_PAIR_HAM_SCHEMA,
        )

    from ray.data.aggregate import Min

    rows = ds.map_batches(fingerprints, batch_format="pyarrow")
    pairs = rows.groupby("bucket").map_groups(bucket_pairs, batch_format="pandas")
    return pairs.groupby(["a", "b"]).aggregate(Min("hamming", alias_name="hamming")).sort(["a", "b"])


_CROSS_OFFSET = np.int64(1) << np.int64(40)  # right-side id encoding for cross-corpus banding


def _bucket_cross_pairs(group, max_bucket: int = 200) -> pa.Table:
    """CROSS-side pairs within each (band, band_hash) LSH bucket of one
    coarse shuffle bucket: left ids are < _CROSS_OFFSET, right ids are
    encoded + _CROSS_OFFSET; only left x right pairs are emitted (the
    fuzzy-decontamination shape — within-side duplicates are a different
    query and would dominate the pair volume for nothing here). Each side
    truncates at the max_bucket smallest ids with the dropped CROSS pair
    count carried out as a sentinel row (same convention as _bucket_pairs:
    a = -1 - coarse_bucket, b = dropped, est = 2.0)."""
    a_out, b_out, est = [], [], []
    dropped = 0
    for (_, _), g in group.groupby(["band", "band_hash"], sort=False):
        ids = list(g["id"])
        if len(ids) < 2:
            continue
        sig_by_id = dict(zip(ids, list(g["sig"])))
        lids = sorted(i for i in ids if i < int(_CROSS_OFFSET))
        rids = sorted(i for i in ids if i >= int(_CROSS_OFFSET))
        if not lids or not rids:
            continue
        la, ra = lids[:max_bucket], rids[:max_bucket]
        dropped += len(lids) * len(rids) - len(la) * len(ra)
        lsigs = [np.asarray(sig_by_id[i], dtype=np.uint64) for i in la]
        rsigs = [np.asarray(sig_by_id[i], dtype=np.uint64) for i in ra]
        for x, i in enumerate(la):
            for y, j in enumerate(ra):
                a_out.append(i)
                b_out.append(j)
                est.append(float((lsigs[x] == rsigs[y]).mean()))
    if dropped:
        a_out.append(-1 - int(group["bucket"].iloc[0]))
        b_out.append(dropped)
        est.append(2.0)
    return pa.table(
        {"a": pa.array(a_out, type=pa.int64()), "b": pa.array(b_out, type=pa.int64()),
         "est_jaccard": pa.array(est, type=pa.float64())},
        schema=_PAIR_EST_SCHEMA,
    )


def minhash_cross_pairs(
    left, right, text_col="text", id_col="doc_id", k=64, bands=16, shingle=3,
    threshold=0.5, seed=42, stats: dict | None = None,
):
    """Cross-corpus near-duplicate pairs (left_id, right_id, est_jaccard >=
    threshold) — FUZZY decontamination: where decontam.ngram_contamination
    removes training docs sharing an exact 8-gram with an eval set, this
    finds training docs that are near-duplicates of eval docs even after
    light edits (the Dolma/FineWeb-style fuzzy leak check). Only cross-side
    pairs are generated: within-side duplicates never materialize, so the
    pair volume is |buckets| * |A_b| * |B_b|, not the full quadratic.

    Plan: both corpora sign through the shared task-pool MinHasher (right
    ids ride encoded + 2^40, so the band/bucket plumbing is reused
    verbatim), one coarse-bucket exchange groups LSH buckets, the kernel
    emits cross pairs with truncation sentinels, and the band-level
    duplicates collapse through one (a, b) groupby (est is band-invariant).
    Contract: ids are non-negative and < 2^40 (loudly checked)."""
    import pyarrow.compute as pc

    from ray.data.aggregate import Max

    from text_to_graph_ray.util import compact_nonempty

    n_l = _metadata_row_count(left) or left.count()
    n_r = _metadata_row_count(right) or right.count()
    sl = minhash_signatures(left, text_col=text_col, id_col=id_col, k=k, shingle=shingle, seed=seed)
    sr = minhash_signatures(right, text_col=text_col, id_col=id_col, k=k, shingle=shingle, seed=seed)

    def encode(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return b
        ids = b.column("id")
        if pc.min(ids).as_py() < 0 or pc.max(ids).as_py() >= int(_CROSS_OFFSET):
            raise ValueError("minhash_cross_pairs: ids must be in [0, 2^40)")
        return b.set_column(0, "id", pc.add(ids, pa.scalar(int(_CROSS_OFFSET), type=pa.int64())))

    def check_left(b: pa.Table) -> pa.Table:
        if b.num_rows and (pc.min(b.column("id")).as_py() < 0 or pc.max(b.column("id")).as_py() >= int(_CROSS_OFFSET)):
            raise ValueError("minhash_cross_pairs: ids must be in [0, 2^40)")
        return b

    sigs = sl.map_batches(check_left, batch_format="pyarrow").union(
        sr.map_batches(encode, batch_format="pyarrow")
    )
    parts, shuffle_buckets = _minhash_exchange_shape(n_l + n_r, bands, rows_per_partition=32_768)
    band_rows = sigs.map_batches(
        lambda b: _band_rows(b, bands, shuffle_buckets=shuffle_buckets), batch_format="pyarrow"
    ).repartition(parts)
    pairs = band_rows.groupby("bucket").map_groups(_bucket_cross_pairs, batch_format="pandas")
    pairs = pairs.map_batches(
        lambda t: t.filter(pc.greater_equal(t.column("est_jaccard"), threshold)), batch_format="pyarrow"
    )
    pairs = compact_nonempty(pairs.materialize())
    pairs, cnt = _strip_pair_sentinels(pairs, stats, plan="cross")
    if cnt == 0:
        return _empty_pairs("est_jaccard")
    n = max(1, min(cnt // (2 * bands), cnt // 1_000_000 + 1))
    deduped = (
        pairs.repartition(n)
        .groupby(["a", "b"])
        .aggregate(Max("est_jaccard", alias_name="est_jaccard"))
    )

    def decode(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.schema([("a", pa.int64()), ("b", pa.int64()), ("est_jaccard", pa.float64())]).empty_table()
        return pa.table({
            "a": t.column("a"),
            "b": pc.subtract(t.column("b"), pa.scalar(int(_CROSS_OFFSET), type=pa.int64())),
            "est_jaccard": t.column("est_jaccard"),
        })

    return deduped.map_batches(decode, batch_format="pyarrow").sort(["a", "b"])


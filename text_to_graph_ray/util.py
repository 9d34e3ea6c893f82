"""Small shared utilities."""

from __future__ import annotations

import os
import shutil


def pa_from_pandas(df):
    """``pa.Table.from_pandas`` WITHOUT the b'pandas' schema metadata: that
    metadata dict makes the schema unhashable, which defeats Ray's
    schema-deduplication in every reduce task ("Failed to hash the schemas")
    and destabilizes block-schema comparisons."""
    import pyarrow as pa

    return pa.Table.from_pandas(df, preserve_index=False).replace_schema_metadata(None)


def _strip_schema_meta(b):
    return b.replace_schema_metadata(None)


def read_parquet_clean(path, **kwargs):
    """``ray.data.read_parquet`` + strip file-level schema metadata.

    Parquet written by pandas embeds a b'pandas' metadata dict in the file
    schema; blocks read from such files carry it, which makes their schemas
    UNHASHABLE — every downstream sort/groupby reduce task then logs "Failed
    to hash the schemas (for deduplication)" and loses schema-dedup. The
    strip is zero-copy (new schema object, same buffers) and fuses with the
    read."""
    import ray.data as rd

    # single-file read: hand the reader a metadata-free (column-pruned) schema
    # so even the read tasks' own blocks are clean — no warning from inside
    # ReadParquet->SplitBlocks. Directory reads (hive-partitioned checkpoints)
    # keep the zero-copy strip stage instead: a file-schema override would
    # silently drop partition columns like part_id.
    if "schema" not in kwargs and isinstance(path, str) and os.path.isfile(path):
        try:
            import pyarrow as pa
            import pyarrow.parquet as pq

            full = pq.read_schema(path).remove_metadata()
            cols = kwargs.get("columns")
            kwargs = dict(kwargs, schema=pa.schema([full.field(c) for c in cols]) if cols else full)
            out = rd.read_parquet(path, **kwargs)
            out._graft_source = path  # footer-count hint (parquet_row_count)
            return out
        except (KeyError, OSError):
            pass
    ds = rd.read_parquet(path, **kwargs)
    out = ds.map_batches(_strip_schema_meta, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    # appended stages make Dataset.input_files() come back empty, so carry the
    # source path as a driver-side hint — lets size-guarded plan decisions
    # (e.g. signature_join="auto") count rows from parquet footers instead of
    # executing a full scan
    out._graft_source = path
    return out


def parquet_row_count(path) -> int:
    """THE row counter for data on disk: rows in a parquet file, a directory
    tree of them, or a list of files, summed from the footers (no data page
    read, no Ray job). A missing path raises rather than answer 0."""
    import pyarrow.parquet as pq

    if isinstance(path, str):
        if os.path.isdir(path):
            files = [os.path.join(r, n) for r, _, ns in os.walk(path) for n in ns if n.endswith(".parquet")]
        elif os.path.isfile(path):
            files = [path]
        else:
            raise FileNotFoundError(path)
    else:
        files = list(path)
    return sum(pq.read_metadata(f).num_rows for f in files)


def block_rows(mds) -> list:
    """THE row counter for data in the object store: ``[(block_ref,
    num_rows)]`` of a MATERIALIZED dataset in block order, from Ray's block
    metadata (no task, no data moved; on Arrow datasets the refs are what
    ``to_arrow_refs`` returns). A block without a row count raises: reading
    it as empty would silently drop or misnumber rows."""
    out = []
    for bundle in mds.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            if meta.num_rows is None:
                raise ValueError(f"block {ref.hex()} has no row count in its metadata")
            out.append((ref, meta.num_rows))
    return out


def ensure_dir_once(out: str, build) -> str:
    """Idempotent atomic directory materialization: if ``out/_SUCCESS`` exists
    return immediately; otherwise run ``build(tmp_dir)`` against a
    CALLER-UNIQUE tmp dir and atomically rename into place. Concurrent
    callers each build in their own tmp (pid+random suffix) so they never
    write into each other's directory; the rename loser discards its copy."""
    import uuid

    done = os.path.join(out, "_SUCCESS")
    if os.path.exists(done):
        return out
    tmp = f"{out}.tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}"
    os.makedirs(tmp, exist_ok=True)
    build(tmp)
    with open(os.path.join(tmp, "_SUCCESS"), "w") as f:
        f.write("ok")
    if not os.path.exists(done):
        try:
            os.rename(tmp, out)
        except OSError:  # lost a race with a concurrent builder — verify it
            shutil.rmtree(tmp, ignore_errors=True)
            if not os.path.exists(done):
                # not a race: permissions / cross-device / other rename
                # failure would otherwise hand callers a missing directory
                raise
    else:
        shutil.rmtree(tmp, ignore_errors=True)
    return out


def sort_coalesced(ds, keys, rows_per_block: int = 1_000_000, descending=False,
                   bytes_per_block: int = 64 * 1024 * 1024):
    """``ds.sort(keys)`` for result streams whose size is unknown until
    runtime: materialize (the sort shuffle would anyway), count, and size the
    sort to <= count/2 partitions (every sampled boundary range then holds
    >= 2 keys, so the sort emits no schema-less empty partitions) and
    ~rows_per_block rows each at scale.

    Partition count is also sized by BYTES (``size_bytes`` of the
    materialized input): a text-heavy result can hit Arrow's 2 GB int32
    string-offset ceiling ("offset overflow while concatenating arrays" in
    the sort's take) long before the row cap does — 1M rows of 2.4 KB docs
    is 2.4 GB in one block — and, as damaging at cluster widths, a handful
    of giant partitions serializes the sort (a 3.7 GB text result in 8
    partitions runs 8 sort tasks no matter how many cores exist). 64 MB is
    measured, not guessed: sorting a 4.4 GB string corpus at 32 cpus took
    135 s at 545 MB blocks, 35-40 s at 145 MB, and 3-13 s at 68 MB —
    wide-string take/concat degrades superlinearly with block size well
    before the offset ceiling."""
    ds = ds.materialize()
    cnt = ds.count()
    if cnt == 0:
        return ds
    by_bytes = (ds.size_bytes() or 0) // bytes_per_block
    n = max(1, min(cnt // 2, max(cnt // rows_per_block, by_bytes) + 1))
    return ds.repartition(n).sort(keys, descending=descending)


def compact_nonempty(mds):
    """Drop zero-row blocks from a MATERIALIZED dataset, keeping the surviving
    block refs zero-copy (no data moves; metadata-only row counts).

    Why: skewed or tiny shuffles can leave zero-row blocks in a materialized
    result, and Ray's FUSED map chains drop empty batches BETWEEN stages, so
    an empty input block turns a downstream task's output schema-less
    ('RefBundle with a different schema' instability). Compacting at the
    materialization boundary removes the empties before they propagate;
    ``agg.bucket_exchange`` applies this on both its input and its output.

    Falls back to the input unchanged when every block is empty (the template
    then IS the schema carrier).

    Contract: blocks must be Arrow (true for every exchange in this repo —
    per-bucket UDFs return pa.Table); ``from_arrow_refs`` would misread
    pandas blocks."""
    import ray.data as rd

    blocks = block_rows(mds)
    keep = [ref for ref, n in blocks if n]
    if not keep or len(keep) == len(blocks):
        return mds
    return rd.from_arrow_refs(keep)


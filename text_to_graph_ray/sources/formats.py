"""Multi-format ingest: JSONL / CSV readers normalized onto the documents
schema, plus deterministic format-conversion helpers for the oracle gate.

Reference parity: the reference's sources are PDF extractors feeding a text
column (SURVEY §2.1 S1/S2 — N/A for a text-parquet engine); a COMPLETE data
engine still needs the common interchange formats. Both readers are thin
wrappers over Ray Data's native distributed readers (`read_json` /
`read_csv` stream file shards exactly like `read_parquet` streams row
groups), with the same schema-metadata hygiene as ``read_parquet_clean`` and
explicit column projection applied immediately after the scan (JSON/CSV
cannot prune at the read the way parquet does — the projection bounds what
enters the object store to the requested columns).
"""

from __future__ import annotations

import os

import pyarrow as pa

_CACHE_ROOT = "/tmp/graft_formats/v1"


def read_jsonl(path: str, columns: list[str] | None = None):
    """Distributed JSONL read -> column-pruned Arrow blocks."""
    import ray.data as rd

    ds = rd.read_json(path)
    if columns:
        ds = ds.select_columns(columns)
    return ds


def read_csv(path: str, columns: list[str] | None = None):
    """Distributed CSV read -> column-pruned Arrow blocks."""
    import ray.data as rd

    ds = rd.read_csv(path)
    if columns:
        ds = ds.select_columns(columns)
    return ds


def _ensure_converted(sf_dir: str, fmt: str) -> str:
    """Deterministic one-time conversion of documents.parquet into JSONL/CSV
    under /tmp (cached by sf dir; the gate's oracle reads the SAME file with
    DuckDB's read_json_auto / read_csv_auto, so the conversion cannot hide an
    engine bug). Only metadata columns are exported — text stays out of the
    interchange fixtures to keep them byte-stable across writers."""
    import duckdb

    tag = os.path.basename(os.path.normpath(sf_dir))
    out = os.path.join(_CACHE_ROOT, tag, f"documents.{fmt}")
    if os.path.exists(out):
        return out
    os.makedirs(os.path.dirname(out), exist_ok=True)
    con = duckdb.connect()
    src = os.path.join(sf_dir, "documents.parquet")
    tmp = out + ".tmp"
    if fmt == "jsonl":
        con.sql(
            f"COPY (SELECT doc_id, source, lang, n_chars FROM read_parquet('{src}') ORDER BY doc_id) "
            f"TO '{tmp}' (FORMAT JSON)"
        )
    elif fmt == "csv":
        con.sql(
            f"COPY (SELECT doc_id, source, lang, n_chars FROM read_parquet('{src}') ORDER BY doc_id) "
            f"TO '{tmp}' (FORMAT CSV, HEADER)"
        )
    else:
        raise ValueError(fmt)
    os.replace(tmp, out)
    return out


def source_stats_from(ds):
    """Per-(source, lang) doc counts + char sums over any documents-shaped
    dataset — the combiner-first catalog aggregate, format-agnostic."""
    import pandas as pd
    import ray.data as rd
    from ray.data.aggregate import Sum

    from text_to_graph_ray.util import pa_from_pandas, sort_coalesced

    part_schema = pa.schema(
        [("source", pa.string()), ("lang", pa.string()), ("n_docs", pa.int64()), ("chars", pa.int64())]
    )

    def partial(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return part_schema.empty_table()
        df = pd.DataFrame(
            {
                "source": b.column("source").to_pylist(),
                "lang": b.column("lang").to_pylist(),
                "n_chars": b.column("n_chars").to_numpy(zero_copy_only=False).astype("int64"),
            }
        )
        g = df.groupby(["source", "lang"], as_index=False).agg(n_docs=("n_chars", "size"), chars=("n_chars", "sum"))
        return pa.table({f.name: pa.array(g[f.name], type=f.type) for f in part_schema}, schema=part_schema)

    agg = ds.map_batches(partial, batch_format="pyarrow", batch_size=None).groupby(["source", "lang"]).aggregate(
        Sum("n_docs", alias_name="n_docs"), Sum("chars", alias_name="chars")
    )

    def finish(df: pd.DataFrame) -> pa.Table:
        df["n_docs"] = df["n_docs"].astype("int64")
        df["chars"] = df["chars"].astype("int64")
        return pa_from_pandas(df[["source", "lang", "n_docs", "chars"]])

    return sort_coalesced(agg.map_batches(finish, batch_format="pandas"), ["source", "lang"])


def parquet_profile(path: str) -> pa.Table:
    """Column-chunk storage profile from the parquet FOOTER only — the
    catalog op behind every prune-at-the-read decision (which columns are
    worth projecting away, how compressed each is, whether row groups are
    sized for the scan): per column, chunk count, value count, compressed
    and uncompressed byte totals. Metadata-only: no data pages are read, no
    Ray stage is launched — cost is O(columns x row_groups) footer entries,
    the same source ``util.parquet_row_count`` counts rows from. Returns
    an Arrow table sorted by column name; oracle = DuckDB parquet_metadata()
    over the same file."""
    import pyarrow.parquet as pq

    md = pq.ParquetFile(path).metadata
    agg: dict = {}
    for i in range(md.num_row_groups):
        rg = md.row_group(i)
        for j in range(rg.num_columns):
            c = rg.column(j)
            a = agg.setdefault(c.path_in_schema, [0, 0, 0, 0])
            a[0] += 1
            a[1] += c.num_values
            a[2] += c.total_compressed_size
            a[3] += c.total_uncompressed_size
    names = sorted(agg)
    return pa.table(
        {
            "column": pa.array(names, type=pa.string()),
            "n_chunks": pa.array([agg[n][0] for n in names], type=pa.int64()),
            "n_values": pa.array([agg[n][1] for n in names], type=pa.int64()),
            "compressed_bytes": pa.array([agg[n][2] for n in names], type=pa.int64()),
            "uncompressed_bytes": pa.array([agg[n][3] for n in names], type=pa.int64()),
        }
    )


def write_partitioned(ds, path: str, partition_cols: list[str]):
    """Hive-partitioned parquet write (idempotent overwrite): one directory
    per partition value — the COARSEST data-skipping granule (a predicate on
    the partition column prunes whole directories before any footer or page
    is touched; z-order row-group pruning picks up WITHIN the surviving
    files). Also the resumable-output discipline: each partition directory
    can be re-written independently."""
    import shutil

    if os.path.exists(path):
        shutil.rmtree(path)
    ds.write_parquet(path, partition_cols=partition_cols)
    return path


def read_partition_values(path: str, col: str, values, columns: list[str] | None = None):
    """Directory-pruned read of a hive-partitioned layout: ONLY the
    ``col=value`` subdirectories for the requested ``values`` are handed to
    ray.data.read_parquet — non-matching partitions are never listed into
    the read plan at all (cheaper than any filter pushdown: zero metadata
    I/O for pruned partitions). The partition column is re-attached as a
    plain column (hive dirs don't store it in the files)."""
    import ray.data as rd

    wanted = []
    for v in values:
        d = os.path.join(path, f"{col}={v}")
        if os.path.isdir(d):
            wanted.append((v, d))
    if not wanted:
        raise ValueError(f"no partition of {path} matches {col} in {list(values)}")
    parts = []
    for v, d in wanted:
        ds = rd.read_parquet(d, columns=columns)

        def attach(t, _v=v):
            import pyarrow as pa

            if col in t.schema.names:  # writer kept the partition column in the files
                return t
            if t.num_rows == 0:
                return t.append_column(col, pa.array([], type=pa.string()))
            return t.append_column(col, pa.array([str(_v)] * t.num_rows))

        parts.append(ds.map_batches(attach, batch_format="pyarrow"))
    out = parts[0]
    for p in parts[1:]:
        out = out.union(p)
    return out


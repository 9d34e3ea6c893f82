"""Stage kernels timed in-process: one thread, no Ray.

Each stage's public batch function runs over the workload's own input (a
prefix of its rows, up to ``MAX_CONTENT_BYTES`` of content), in the order
``kg.run`` applies them: sha256 -> chunk -> extract -> entity keys ->
combiner partials -> per-bucket merge -> alias relink of the merged
vocabulary. Rates are per second of that thread's wall time.
"""

from __future__ import annotations

import time

MAX_CONTENT_BYTES = 4 << 20


def _timed(fn, *args):
    t = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t


def kernel_rates(input_path: str) -> dict:
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from text_to_graph_ray.config import DEFAULT_CONFIG as cfg
    from text_to_graph_ray.pipelines.kg import _plain_keys
    from text_to_graph_ray.stages.canonicalize import combined_partials, merge_bucket
    from text_to_graph_ray.stages.chunker import chunk_files
    from text_to_graph_ray.stages.extract import extract_records
    from text_to_graph_ray.stages.hashing import add_sha256
    from text_to_graph_ray.stages.linker import MergedLinker

    tbl = pq.read_table(input_path, columns=["repo", "path", "lang", "content"])
    sizes = pc.binary_length(pc.cast(tbl.column("content"), pa.binary())).to_pylist()
    n, acc = 0, 0
    while n < len(sizes) and (acc < MAX_CONTENT_BYTES or n == 0):
        acc += sizes[n] or 0
        n += 1
    tbl = tbl.slice(0, n)
    mb = acc / 1e6

    hashed, t_sha = _timed(add_sha256, tbl)
    chunks, t_chunk = _timed(chunk_files, hashed, cfg)
    records, t_extract = _timed(extract_records, chunks)
    keyed, t_keys = _timed(_plain_keys, records)
    partials, t_partials = _timed(combined_partials, keyed, cfg.num_partitions)

    t_merge = 0.0
    merged_parts = []
    pdf = partials.to_pandas()
    for _, group in pdf.groupby("bucket", sort=True):
        out, dt = _timed(merge_bucket, group)
        merged_parts.append(out)
        t_merge += dt
    merged = pa.concat_tables(merged_parts)

    is_def = pc.equal(merged.column("kind"), "d")
    defs = merged.filter(is_def).select(["k1", "k2"]).group_by(["k1", "k2"]).aggregate([])
    vocab = merged.filter(pc.invert(is_def))
    linker = MergedLinker(defs_idx=defs)
    linked, t_relink = _timed(linker, vocab)
    changed = pc.sum(linked.column("changed")).as_py() or 0

    return {
        "hashing.sha256_mb_per_s": mb / t_sha,
        "chunker.chunk_mb_per_s": mb / t_chunk,
        "extract.extract_mb_per_s": mb / t_extract,
        "linker.keys_rows_per_s": records.num_rows / t_keys,
        "canonicalize.partials_rows_per_s": keyed.num_rows / t_partials,
        "canonicalize.combiner_ratio": partials.num_rows / max(1, keyed.num_rows),
        "canonicalize.merge_rows_per_s": partials.num_rows / t_merge,
        "linker.relink_rows_per_s": vocab.num_rows / t_relink,
        "linker.changed_frac": changed / max(1, vocab.num_rows),
    }


def implied_kernel_seconds(rates: dict, content_bytes: int, all_records_rows: int, merged_rows: int) -> float:
    """CPU seconds the stage kernels alone would need for one run's volumes:
    sha/chunk/extract over the content extracted this run, keys and partials
    over every record canonicalization reads, merge over the partial rows
    that implies, and relink over the merged vocabulary."""
    mb = content_bytes / 1e6
    partial_rows = all_records_rows * rates["canonicalize.combiner_ratio"]
    return (
        mb / rates["hashing.sha256_mb_per_s"]
        + mb / rates["chunker.chunk_mb_per_s"]
        + mb / rates["extract.extract_mb_per_s"]
        + all_records_rows / rates["linker.keys_rows_per_s"]
        + all_records_rows / rates["canonicalize.partials_rows_per_s"]
        + partial_rows / rates["canonicalize.merge_rows_per_s"]
        + merged_rows / rates["linker.relink_rows_per_s"]
    )

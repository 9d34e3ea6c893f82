"""content_sha256 — the per-row invariant column.

Semantics of the reference's document hash (/root/reference/graph_extractor/
src/my_hash.py:4-16: sha-256 over UTF-8 bytes), emitted as a hex string column
instead of a SQLite UNIQUE blob. Runs as a stateless ``map_batches`` over Arrow
batches; hashlib releases the GIL per update so per-row looping here is
hash-bound, not interpreter-bound.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa


def add_sha256(batch: pa.Table, column: str = "content", out: str = "content_sha256") -> pa.Table:
    vals = batch.column(column)
    hashes = [hashlib.sha256(v.encode("utf-8") if v is not None else b"").hexdigest() for v in vals.to_pylist()]
    return batch.append_column(out, pa.array(hashes, type=pa.string()))


"""Explicit Arrow schema of the chunk stage (SURVEY §1.2).

The reference is dynamically-typed pandas + CSV text; here the chunk table has
a fixed ``pyarrow.Schema`` with padding computed at chunk-creation time.
"""

from __future__ import annotations

import pyarrow as pa

# Chunk table (reference chunk_utils.py:36-44,127-133 reshaped; padding is
# computed at chunk-creation time so no cross-row dependency survives).
CHUNKS = pa.schema(
    [
        ("repo", pa.string()),
        ("path", pa.string()),
        ("lang", pa.string()),
        ("content_sha256", pa.string()),
        ("chunk_index", pa.int64()),
        ("chunk_size", pa.int64()),   # token count
        ("token_start", pa.int64()),
        ("token_end", pa.int64()),
        ("text", pa.string()),
        ("text_padded", pa.string()),
    ]
)
